package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func collect(t *testing.T, s *Store, from uint64) (lsns []uint64, recs [][]byte) {
	t.Helper()
	err := s.Replay(from, func(lsn uint64, rec []byte) error {
		lsns = append(lsns, lsn)
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	return lsns, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Policy: SyncNever})
	var want [][]byte
	for i := 0; i < 25; i++ {
		rec := bytes.Repeat([]byte{byte(i + 1)}, 1+i*13)
		lsn, err := s.Append(rec)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i) {
			t.Fatalf("Append %d: lsn = %d", i, lsn)
		}
		want = append(want, rec)
	}
	if got := s.NextLSN(); got != 25 {
		t.Fatalf("NextLSN = %d, want 25", got)
	}
	lsns, recs := collect(t, s, 0)
	if len(recs) != 25 {
		t.Fatalf("replayed %d records, want 25", len(recs))
	}
	for i, rec := range recs {
		if lsns[i] != uint64(i) || !bytes.Equal(rec, want[i]) {
			t.Fatalf("record %d: lsn %d, payload mismatch %v", i, lsns[i], !bytes.Equal(rec, want[i]))
		}
	}
	if lsns, _ := collect(t, s, 20); len(lsns) != 5 || lsns[0] != 20 {
		t.Fatalf("Replay(20) = lsns %v, want [20..24]", lsns)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	// Reopen: same records, same next LSN.
	s2 := mustOpen(t, dir, Options{Policy: SyncNever})
	defer s2.Close()
	if got := s2.NextLSN(); got != 25 {
		t.Fatalf("reopened NextLSN = %d, want 25", got)
	}
	if _, recs := collect(t, s2, 0); len(recs) != 25 || !bytes.Equal(recs[24], want[24]) {
		t.Fatal("reopened replay mismatch")
	}
}

func TestAppendValidation(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Policy: SyncNever})
	defer s.Close()
	if _, err := s.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := s.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestRotationCompactionCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Policy: SyncNever, SegmentBytes: 256})
	rec := bytes.Repeat([]byte{7}, 56) // 64 bytes framed: 4 per segment
	for i := 0; i < 20; i++ {
		if _, err := s.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if got := s.Segments(); got != 5 {
		t.Fatalf("Segments = %d, want 5", got)
	}
	if lsns, _ := collect(t, s, 0); len(lsns) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(lsns))
	}

	// Checkpoint at LSN 10: segments holding only records < 10 die.
	if err := s.WriteCheckpoint(10, []byte("state@10")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if got := s.Segments(); got != 3 { // [8,12) [12,16) [16,...)
		t.Fatalf("Segments after compaction = %d, want 3", got)
	}
	if lsns, _ := collect(t, s, 10); len(lsns) != 10 || lsns[0] != 10 {
		t.Fatalf("post-compaction Replay(10): %v", lsns)
	}

	// A newer checkpoint prunes the older one.
	if err := s.WriteCheckpoint(20, []byte("state@20")); err != nil {
		t.Fatalf("WriteCheckpoint(20): %v", err)
	}
	lsn, r, ok, err := s.LatestCheckpoint()
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil || string(data) != "state@20" || lsn != 20 {
		t.Fatalf("LatestCheckpoint = lsn %d %q, want 20 state@20", lsn, data)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName(10))); !os.IsNotExist(err) {
		t.Errorf("old checkpoint not pruned: %v", err)
	}
	if got := s.Segments(); got != 1 {
		t.Fatalf("Segments after full compaction = %d, want 1", got)
	}
	s.Close()

	// Recovery across reopen: checkpoint + tail replay still line up.
	s2 := mustOpen(t, dir, Options{Policy: SyncNever, SegmentBytes: 256})
	defer s2.Close()
	if got := s2.NextLSN(); got != 20 {
		t.Fatalf("reopened NextLSN = %d, want 20", got)
	}
	if lsns, _ := collect(t, s2, 20); len(lsns) != 0 {
		t.Fatalf("Replay(20) after reopen: %v", lsns)
	}
}

// TestTornTailSweep cuts the log at every byte offset inside the final
// record and asserts recovery keeps exactly the records before it —
// the crash-injection half of the durability contract.
func TestTornTailSweep(t *testing.T) {
	build := t.TempDir()
	s := mustOpen(t, build, Options{Policy: SyncNever})
	recs := [][]byte{
		bytes.Repeat([]byte{1}, 10),
		bytes.Repeat([]byte{2}, 33),
		bytes.Repeat([]byte{3}, 21),
	}
	for _, r := range recs {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Abandoned without Close: the per-append flush alone must make the
	// records visible to recovery, like a kill -9 would rely on.
	seg := filepath.Join(build, segmentName(0))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := len(full) - headerSize - len(recs[2])
	for cut := lastStart; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs := mustOpen(t, dir, Options{Policy: SyncNever})
		wantRecs := 2
		if cut == len(full) {
			wantRecs = 3
		}
		if got := cs.NextLSN(); got != uint64(wantRecs) {
			t.Fatalf("cut %d: NextLSN = %d, want %d", cut, got, wantRecs)
		}
		if cut < len(full) && cs.TornBytes() != int64(cut-lastStart) {
			t.Fatalf("cut %d: TornBytes = %d, want %d", cut, cs.TornBytes(), cut-lastStart)
		}
		_, got := collect(t, cs, 0)
		if len(got) != wantRecs {
			t.Fatalf("cut %d: %d records survive, want %d", cut, len(got), wantRecs)
		}
		for i, r := range got {
			if !bytes.Equal(r, recs[i]) {
				t.Fatalf("cut %d: record %d corrupted", cut, i)
			}
		}
		// The torn slot's LSN is reused by the next append.
		lsn, err := cs.Append([]byte("after-crash"))
		if err != nil || lsn != uint64(wantRecs) {
			t.Fatalf("cut %d: post-recovery append lsn %d err %v", cut, lsn, err)
		}
		cs.Close()
	}
}

// TestZeroFilledTail: a zero-filled tail, such as space a file system
// allocated but a crash never wrote, parses as frames with an empty
// payload and a valid CRC. Records are never empty, so Open truncates
// the zeros as a torn tail instead of counting them as records.
func TestZeroFilledTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Policy: SyncNever})
	if _, err := s.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := filepath.Join(dir, segmentName(0))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 3*headerSize)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cs := mustOpen(t, dir, Options{Policy: SyncNever})
	defer cs.Close()
	if cs.NextLSN() != 1 || cs.TornBytes() != 3*headerSize {
		t.Fatalf("NextLSN = %d, TornBytes = %d; want 1 and %d", cs.NextLSN(), cs.TornBytes(), 3*headerSize)
	}
	if _, got := collect(t, cs, 0); len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("replayed %q, want the one record", got)
	}
}

// TestMidLogCorruption: a CRC flip in a sealed segment is data loss,
// not a torn tail — replay must refuse rather than silently skip.
func TestMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	for i := 0; i < 12; i++ {
		if _, err := s.Append(bytes.Repeat([]byte{byte(i + 1)}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Segments() < 3 {
		t.Fatalf("want >=3 segments, got %d", s.Segments())
	}
	s.Close()

	// Flip one payload byte in the first (sealed) segment.
	seg := filepath.Join(dir, segmentName(0))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+3] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	defer s2.Close()
	err = s2.Replay(0, func(uint64, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("Replay over corrupt sealed segment = %v, want CRC mismatch", err)
	}
}

func TestReplayGapDetection(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	for i := 0; i < 12; i++ {
		if _, err := s.Append(bytes.Repeat([]byte{9}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, segmentName(0))); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{Policy: SyncNever, SegmentBytes: 128})
	defer s2.Close()
	err := s2.Replay(0, func(uint64, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("Replay over missing segment = %v, want missing-records error", err)
	}
}

// TestCheckpointBeyondTail: a checkpoint can cover records that never
// reached disk (fsync=never + power loss). Their state lives in the
// checkpoint; the store must not hand their LSN slots out again.
func TestCheckpointBeyondTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Policy: SyncNever})
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteCheckpoint(5, []byte("covers 0..4")); err != nil {
		t.Fatal(err)
	}
	// Abandon (no Close) and reopen: next LSN must jump to 5.
	s2 := mustOpen(t, dir, Options{Policy: SyncNever})
	defer s2.Close()
	if got := s2.NextLSN(); got != 5 {
		t.Fatalf("NextLSN = %d, want checkpoint LSN 5", got)
	}
	lsn, err := s2.Append([]byte("post"))
	if err != nil || lsn != 5 {
		t.Fatalf("append = lsn %d err %v, want 5", lsn, err)
	}
	if lsns, _ := collect(t, s2, 5); len(lsns) != 1 || lsns[0] != 5 {
		t.Fatalf("Replay(5) = %v, want [5]", lsns)
	}
}

func TestOpenHousekeeping(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	tmp := filepath.Join(dir, checkpointName(3)+tmpSuffix)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{Policy: SyncNever})
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("leftover temp checkpoint not removed: %v", err)
	}
	if _, _, ok, err := s.LatestCheckpoint(); ok || err != nil {
		t.Errorf("temp file treated as checkpoint: ok=%v err=%v", ok, err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in     string
		policy SyncPolicy
		ival   time.Duration
		ok     bool
	}{
		{"always", SyncAlways, 0, true},
		{"never", SyncNever, 0, true},
		{"interval", SyncInterval, 0, true},
		{"interval=250ms", SyncInterval, 250 * time.Millisecond, true},
		{"interval=-1s", 0, 0, false},
		{"interval=", 0, 0, false},
		{"fsync", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, c := range cases {
		p, d, err := ParsePolicy(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParsePolicy(%q): err = %v, ok = %v", c.in, err, c.ok)
			continue
		}
		if c.ok && (p != c.policy || d != c.ival) {
			t.Errorf("ParsePolicy(%q) = %v %v, want %v %v", c.in, p, d, c.policy, c.ival)
		}
	}
}

// TestGroupCommitConcurrent hammers Append under SyncAlways from many
// goroutines (run with -race): every record must come back, each LSN
// exactly once, and group commit should not need one fsync per append.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Policy: SyncAlways, SegmentBytes: 4096})
	const workers, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	lsns, _ := collect(t, s, 0)
	for _, l := range lsns {
		if seen[l] {
			t.Fatalf("duplicate lsn %d", l)
		}
		seen[l] = true
	}
	if len(seen) != workers*each {
		t.Fatalf("replayed %d records, want %d", len(seen), workers*each)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalPolicySyncs: the background goroutine advances durability
// without the writer asking.
func TestIntervalPolicySyncs(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Policy: SyncInterval, Interval: time.Millisecond})
	if _, err := s.Append([]byte("tick")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.fsyncs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	rec := bytes.Repeat([]byte{42}, 96)
	for _, policy := range []SyncPolicy{SyncNever, SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.SetBytes(int64(headerSize + len(rec)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
