package wal

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/binfmt"
)

// SpillFile is the cold tier of the engine's memory-tiered user state: a
// log-structured key→payload store backed by one append-only file. The
// engine evicts an idle user's serialized state here and faults it back
// in on the next touch, so the file sees a Put/Get/Delete churn pattern.
// Writes always append (no in-place updates — the same torn-write safety
// argument as the WAL proper); superseded frames become garbage that a
// compaction pass rewrites away once it dominates the file.
//
// The index (key → file offset) lives in memory only: spilled state is a
// process-lifetime overflow of the resident tier, not a durability
// mechanism — crash recovery rebuilds every user from the WAL and its
// checkpoints, so Open truncates any prior file rather than recovering
// it. Frames are binfmt frames, the WAL record and wire codec layout,
// making a bit flip on disk a loud checksum error at fault-in time.
//
// SpillFile is safe for concurrent use.
type SpillFile struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	size  int64 // file append position
	live  int64 // bytes occupied by live (indexed) frames
	index map[string]spillRef
	buf   []byte // Put's frame buffer, reused under mu
}

type spillRef struct {
	off int64
	n   int64 // whole frame length, header included
}

const (
	// spillCompactMinBytes is the file size below which compaction is
	// never attempted — rewriting a few kilobytes buys nothing.
	spillCompactMinBytes = 1 << 20
	// spillCompactGarbageFactor triggers compaction when dead bytes
	// exceed live bytes by this factor.
	spillCompactGarbageFactor = 3
	// spillMaxKeptBuf bounds the frame buffer Put keeps between calls,
	// so that a rare huge payload is not held for good.
	spillMaxKeptBuf = 1 << 20
)

// OpenSpill creates (or truncates) the spill file at path. Any previous
// contents are discarded: the spill tier never outlives its process.
func OpenSpill(path string) (*SpillFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening spill file: %w", err)
	}
	return &SpillFile{f: f, path: path, index: make(map[string]spillRef)}, nil
}

// Put records payload as the current state for key, superseding any
// previous frame for it.
func (s *SpillFile) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("wal: spill file %s is closed", s.path)
	}
	frame := binfmt.AppendFrame(s.buf[:0], payload)
	if cap(frame) <= spillMaxKeptBuf {
		s.buf = frame[:0]
	}
	if _, err := s.f.WriteAt(frame, s.size); err != nil {
		return fmt.Errorf("wal: appending spill frame: %w", err)
	}
	if old, ok := s.index[key]; ok {
		s.live -= old.n
	}
	s.index[key] = spillRef{off: s.size, n: int64(len(frame))}
	s.size += int64(len(frame))
	s.live += int64(len(frame))
	if s.size >= spillCompactMinBytes && s.size-s.live > spillCompactGarbageFactor*s.live {
		return s.compactLocked()
	}
	return nil
}

// Get returns the payload most recently Put for key; ok is false when
// the key is not present. It reads key's frame onto the end of dst
// (which may be nil) and returns that grown buffer too, payload within
// it, so a caller can keep buf[:0] to reuse one buffer across reads.
func (s *SpillFile) Get(key string, dst []byte) (buf, payload []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil, nil, false, fmt.Errorf("wal: spill file %s is closed", s.path)
	}
	ref, ok := s.index[key]
	if !ok {
		return dst, nil, false, nil
	}
	start := len(dst)
	buf = append(dst, make([]byte, ref.n)...)
	frame := buf[start:]
	if _, err := s.f.ReadAt(frame, ref.off); err != nil {
		return nil, nil, false, fmt.Errorf("wal: reading spill frame for %q: %w", key, err)
	}
	payload, rest, err := binfmt.SplitFrame(frame)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes after the frame's payload", len(rest))
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("wal: spill frame for %q: %w", key, err)
	}
	return buf, payload, true, nil
}

// Delete forgets key. The frame's bytes become garbage to be reclaimed
// by a later compaction. It reports whether the key was present.
func (s *SpillFile) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.index[key]
	if !ok {
		return false
	}
	delete(s.index, key)
	s.live -= ref.n
	return true
}

// Len returns the number of live keys.
func (s *SpillFile) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Live returns the bytes of the live frames, headers included.
func (s *SpillFile) Live() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Size returns the file's current byte size (live + garbage frames).
func (s *SpillFile) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// compactLocked rewrites live frames into a fresh file and atomically
// swaps it into place, dropping superseded and deleted frames. The
// caller holds s.mu.
func (s *SpillFile) compactLocked() error {
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating spill compaction file: %w", err)
	}
	// Deterministic key order keeps the rewritten layout reproducible;
	// it also gives the copy loop sequential-ish source reads for keys
	// spilled around the same time.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	newIndex := make(map[string]spillRef, len(s.index))
	var off int64
	var frame []byte
	for _, k := range keys {
		ref := s.index[k]
		frame = append(frame[:0], make([]byte, ref.n)...)
		if _, err := s.f.ReadAt(frame, ref.off); err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmpPath)
			return fmt.Errorf("wal: compacting spill frame for %q: %w", k, err)
		}
		if _, err := tmp.WriteAt(frame, off); err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmpPath)
			return fmt.Errorf("wal: writing compacted spill frame for %q: %w", k, err)
		}
		newIndex[k] = spillRef{off: off, n: ref.n}
		off += ref.n
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
		return fmt.Errorf("wal: swapping compacted spill file: %w", err)
	}
	_ = s.f.Close()
	s.f = tmp
	s.index = newIndex
	s.size = off
	s.live = off
	return nil
}

// Close releases the file handle and removes the file; the spill tier
// holds no state worth keeping across processes.
func (s *SpillFile) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if rerr := os.Remove(s.path); err == nil && rerr != nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	return err
}
