package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/binfmt"
)

// openTestSpill opens a spill file in a fresh directory and closes
// it when the test ends.
func openTestSpill(t *testing.T) (*spillFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spill.dat")
	f, err := openSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.close() })
	return f, path
}

// spillTo appends payload as id's frame and records where it lies, as
// an eviction does.
func spillTo(t *testing.T, f *spillFile, spilled map[string]spillMeta, id string, payload []byte) {
	t.Helper()
	off, n, err := f.append(payload, spilled)
	if err != nil {
		t.Fatalf("append(%s): %v", id, err)
	}
	spilled[id] = spillMeta{off: off, n: n}
}

// unspill drops id's entry and frees its frame, as a fault-in does.
func unspill(f *spillFile, spilled map[string]spillMeta, id string) {
	f.free(spilled[id])
	delete(spilled, id)
}

// readBack reads the payload of id's frame.
func readBack(t *testing.T, f *spillFile, spilled map[string]spillMeta, id string) []byte {
	t.Helper()
	m, ok := spilled[id]
	if !ok {
		t.Fatalf("%s is not spilled", id)
	}
	_, payload, err := f.read(nil, m)
	if err != nil {
		t.Fatalf("read(%s): %v", id, err)
	}
	return payload
}

// TestSpillAppendRead: every appended frame reads back at the
// location append returned, and a fault-in followed by a second
// eviction leaves the old frame as garbage the live count excludes.
func TestSpillAppendRead(t *testing.T) {
	f, _ := openTestSpill(t)
	spilled := map[string]spillMeta{}
	payloads := []struct {
		id      string
		payload []byte
	}{
		{"alice", []byte("alpha")},
		{"bob", []byte{}},
		{"carol", bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, p := range payloads {
		spillTo(t, f, spilled, p.id, p.payload)
	}
	for _, p := range payloads {
		if got := readBack(t, f, spilled, p.id); !bytes.Equal(got, p.payload) {
			t.Errorf("read(%s) = %d bytes, want %d", p.id, len(got), len(p.payload))
		}
	}
	old := spilled["alice"]
	unspill(f, spilled, "alice")
	spillTo(t, f, spilled, "alice", []byte("beta"))
	if got := readBack(t, f, spilled, "alice"); string(got) != "beta" {
		t.Errorf("after a second eviction read(alice) = %q", got)
	}
	var live int64
	for _, m := range spilled {
		live += m.n
	}
	if f.live != live || f.size != live+old.n {
		t.Errorf("size %d, live %d; want live %d and the old frame's %d bytes of garbage", f.size, f.live, live, old.n)
	}
}

// TestSpillReadAppendsToDst pins the buffer-reuse contract: the
// frame is read onto the end of dst and the payload aliases it.
func TestSpillReadAppendsToDst(t *testing.T) {
	f, _ := openTestSpill(t)
	spilled := map[string]spillMeta{}
	spillTo(t, f, spilled, "k", []byte("payload"))
	dst := append(make([]byte, 0, 64), "prefix"...)
	buf, got, err := f.read(dst, spilled["k"])
	if err != nil {
		t.Fatal(err)
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

// TestSpillFrameAboveReadBound: a payload larger than the bound a
// streamed frame may claim reads back whole, since a spill frame is
// read at its recorded length and split in memory. A location past the
// end of the file is an error, never a short frame.
func TestSpillFrameAboveReadBound(t *testing.T) {
	f, _ := openTestSpill(t)
	spilled := map[string]spillMeta{}
	want := bytes.Repeat([]byte{0xC3}, binfmt.MaxPayload+1)
	spillTo(t, f, spilled, "big", want)
	if got := readBack(t, f, spilled, "big"); !bytes.Equal(got, want) {
		t.Fatalf("read(big) = %d bytes, want the %d bytes appended", len(got), len(want))
	}
	if _, _, err := f.read(nil, spillMeta{off: f.size, n: binfmt.HeaderSize}); err == nil {
		t.Error("read past the end of the file succeeded")
	}
}

// TestSpillCorruptionDetected: a flipped payload byte on disk is a
// loud checksum error at read time, never silently wrong state.
func TestSpillCorruptionDetected(t *testing.T) {
	f, path := openTestSpill(t)
	spilled := map[string]spillMeta{}
	spillTo(t, f, spilled, "k", []byte("sensitive state bytes"))
	disk, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the first payload byte, right after the frame header.
	if _, err := disk.WriteAt([]byte{'X'}, binfmt.HeaderSize); err != nil {
		t.Fatal(err)
	}
	disk.Close()
	if _, _, err := f.read(nil, spilled["k"]); err == nil {
		t.Error("read of a corrupted frame succeeded, want a checksum error")
	}
}

// TestSpillCompaction: one user faulted in and evicted again and
// again leaves a trail of garbage frames. Once the file passes the size
// floor with garbage dominating, the next append compacts it first, so
// the file stays bounded, and every frame the map locates, with the
// offsets compaction rewrote, still reads back.
func TestSpillCompaction(t *testing.T) {
	f, _ := openTestSpill(t)
	spilled := map[string]spillMeta{}
	spillTo(t, f, spilled, "other", []byte("keep me"))
	big := bytes.Repeat([]byte{0x5A}, 300<<10)
	var appended int64
	for i := 0; i < 8; i++ {
		if i > 0 {
			unspill(f, spilled, "churner")
		}
		big[0] = byte(i)
		spillTo(t, f, spilled, "churner", big)
		appended += spilled["churner"].n
		if limit := spillCompactMinBytes + spilled["churner"].n; f.size > limit {
			t.Fatalf("eviction %d: file of %d bytes, want at most %d", i, f.size, limit)
		}
	}
	if f.size >= appended {
		t.Errorf("file of %d bytes after %d appended: no compaction", f.size, appended)
	}
	if got := readBack(t, f, spilled, "churner"); !bytes.Equal(got, big) {
		t.Error("churner's payload after compaction differs from its last frame")
	}
	if got := readBack(t, f, spilled, "other"); string(got) != "keep me" {
		t.Errorf("other's payload after compaction = %q", got)
	}
}

// TestSpillCloseRemovesFile: the spill tier never outlives its
// process, and a closed file fails every later call instead of being
// reopened under offsets the map still holds.
func TestSpillCloseRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.dat")
	f, err := openSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.append([]byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file survives close: %v", err)
	}
	if _, _, err := f.append([]byte("v"), nil); err == nil {
		t.Error("append after close succeeded")
	}
	if _, _, err := f.read(nil, spillMeta{n: binfmt.HeaderSize + 1}); err == nil {
		t.Error("read after close succeeded")
	}
	if err := f.close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestSpillOpenTruncates: a stale file from a previous process is
// discarded, not recovered.
func TestSpillOpenTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.dat")
	if err := os.WriteFile(path, []byte("stale bytes from last run"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := openSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if f.size != 0 || f.live != 0 {
		t.Errorf("after open: size %d, live %d; want 0", f.size, f.live)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Errorf("after open: %v, %v; want an empty file", fi, err)
	}
}

// TestSpillConcurrentReads reads frames from many goroutines at
// once, as lookups under the shard's read lock do; meaningful primarily
// under -race.
func TestSpillConcurrentReads(t *testing.T) {
	f, _ := openTestSpill(t)
	spilled := map[string]spillMeta{}
	for i := 0; i < 4; i++ {
		spillTo(t, f, spilled, fmt.Sprintf("user-%d", i), bytes.Repeat([]byte{byte(i)}, 128))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				k := (g + i) % 4
				b, payload, err := f.read(buf[:0], spilled[fmt.Sprintf("user-%d", k)])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(payload, bytes.Repeat([]byte{byte(k)}, 128)) {
					t.Errorf("user-%d read back wrong bytes", k)
					return
				}
				buf = b
			}
		}(g)
	}
	wg.Wait()
}
