package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/binfmt"
)

func openTestSpill(t *testing.T) *SpillFile {
	t.Helper()
	s, err := OpenSpill(filepath.Join(t.TempDir(), "spill.dat"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestSpillPutGetDelete(t *testing.T) {
	s := openTestSpill(t)
	if _, _, ok, err := s.Get("nope", nil); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	payloads := map[string][]byte{
		"alice": []byte("alpha"),
		"bob":   {},
		"carol": bytes.Repeat([]byte{0xAB}, 4096),
	}
	for k, p := range payloads {
		if err := s.Put(k, p); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	if got := s.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	for k, want := range payloads {
		_, got, ok, err := s.Get(k, nil)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Get(%s) = %d bytes, want %d", k, len(got), len(want))
		}
	}
	// Overwrite supersedes: the new payload wins, Len is unchanged.
	if err := s.Put("alice", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if _, got, _, _ := s.Get("alice", nil); string(got) != "beta" {
		t.Errorf("after overwrite Get(alice) = %q", got)
	}
	if got := s.Len(); got != 3 {
		t.Errorf("Len after overwrite = %d, want 3", got)
	}
	if !s.Delete("alice") {
		t.Error("Delete(alice) = false, want true")
	}
	if s.Delete("alice") {
		t.Error("second Delete(alice) = true, want false")
	}
	if _, _, ok, err := s.Get("alice", nil); err != nil || ok {
		t.Errorf("Get after delete: ok=%v err=%v", ok, err)
	}
}

// TestSpillGetAppendsToDst pins the buffer-reuse contract: the payload
// is appended to dst and aliases it.
// TestSpillFrameAboveReadBound stores a payload larger than the bound
// a streamed frame may claim: a spill frame is read back whole and split
// in memory, so its size is not bounded.
func TestSpillFrameAboveReadBound(t *testing.T) {
	s := openTestSpill(t)
	want := bytes.Repeat([]byte{0xC3}, binfmt.MaxPayload+1)
	if err := s.Put("big", want); err != nil {
		t.Fatal(err)
	}
	_, got, ok, err := s.Get("big", nil)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get(big): %d bytes, ok=%v, err=%v; want the %d bytes put", len(got), ok, err, len(want))
	}
}

func TestSpillGetAppendsToDst(t *testing.T) {
	s := openTestSpill(t)
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 64), "prefix"...)
	buf, got, ok, err := s.Get("k", dst)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(got) != "payload" {
		t.Errorf("payload = %q", got)
	}
	if string(dst[:6]) != "prefix" {
		t.Errorf("dst prefix clobbered: %q", dst[:6])
	}
	// buf is dst grown by the frame, in dst's array, and ends in the payload.
	if len(buf) != 6+binfmt.HeaderSize+len(got) || &buf[0] != &dst[:1][0] || &buf[len(buf)-1] != &got[len(got)-1] {
		t.Errorf("buf = %q, want dst grown by the frame holding the payload", buf)
	}
}

// TestSpillCorruptionDetected: a flipped payload byte on disk is a loud
// checksum error at Get time, never silently wrong state.
func TestSpillCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.dat")
	s, err := OpenSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("sensitive state bytes")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte (first byte after the 8-byte frame header).
	if _, err := f.WriteAt([]byte{'X'}, binfmt.HeaderSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, _, err := s.Get("k", nil); err == nil {
		t.Error("Get of corrupted frame succeeded, want checksum error")
	}
}

// TestSpillCompaction: once the file crosses the size floor and dead
// bytes dominate, Put compacts — the file shrinks to the live set and
// every live key still reads back.
func TestSpillCompaction(t *testing.T) {
	s := openTestSpill(t)
	big := bytes.Repeat([]byte{0x5A}, 300<<10)
	// Rewriting one key keeps live constant while garbage accumulates.
	for i := 0; i < 5; i++ {
		big[0] = byte(i)
		if err := s.Put("churner", big); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if got, max := s.Size(), int64(2*(300<<10+binfmt.HeaderSize)); got > max {
		t.Errorf("Size after compaction = %d, want <= %d", got, max)
	}
	_, got, ok, err := s.Get("churner", nil)
	if err != nil || !ok {
		t.Fatalf("Get after compaction: ok=%v err=%v", ok, err)
	}
	big[0] = 4
	if !bytes.Equal(got, big) {
		t.Error("payload after compaction differs from last Put")
	}
	// Deleted keys stay gone through a compaction cycle.
	if err := s.Put("other", []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	s.Delete("churner")
	for i := 0; i < 5; i++ {
		if err := s.Put("churner2", big); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok, _ := s.Get("churner", nil); ok {
		t.Error("deleted key resurrected by compaction")
	}
	if _, got, ok, err := s.Get("other", nil); err != nil || !ok || string(got) != "keep me" {
		t.Errorf("small key lost across compaction: %q ok=%v err=%v", got, ok, err)
	}
}

// TestSpillCloseRemovesFile: the spill tier never outlives its process.
func TestSpillCloseRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.dat")
	s, err := OpenSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file survives Close: %v", err)
	}
	if err := s.Put("k", []byte("v")); err == nil {
		t.Error("Put after Close succeeded")
	}
	if _, _, _, err := s.Get("k", nil); err == nil {
		t.Error("Get after Close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestSpillOpenTruncates: a stale file from a previous process is
// discarded, not recovered.
func TestSpillOpenTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.dat")
	if err := os.WriteFile(path, []byte("stale bytes from last run"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Size(); got != 0 {
		t.Errorf("Size after open = %d, want 0", got)
	}
	if got := s.Len(); got != 0 {
		t.Errorf("Len after open = %d, want 0", got)
	}
}

// TestSpillConcurrent hammers one file from many goroutines; meaningful
// primarily under -race.
func TestSpillConcurrent(t *testing.T) {
	s := openTestSpill(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("user-%d", g%4)
			payload := bytes.Repeat([]byte{byte(g)}, 128)
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					if err := s.Put(key, payload); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, _, err := s.Get(key, nil); err != nil {
						t.Error(err)
						return
					}
				default:
					s.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
}
