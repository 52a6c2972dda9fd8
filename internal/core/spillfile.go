package core

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/binfmt"
)

// spillFile is one shard's cold-tier file: user frames appended as
// binfmt frames (the WAL record and wire codec layout, so a bit flip on
// disk is a loud checksum error at fault-in) and never rewritten in
// place. It keeps no index. The shard's spilled map is the one record of
// where each spilled user's frame lies; a frame no entry locates any
// more is garbage, which compaction drops once it dominates the file.
//
// The file is scratch, not durability: crash recovery rebuilds every
// user from the WAL and its checkpoints, so opening truncates whatever a
// previous process left and close removes the file.
//
// Every call runs under the shard's lock, which guards the map the
// offsets live in. read and liveBytes may run under its read side, so
// concurrently with each other; mu guards the file's own fields.
type spillFile struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64  // append position
	live int64  // bytes of the frames the shard's map locates
	buf  []byte // append's frame buffer, reused
}

const (
	// spillCompactMinBytes is the file size below which compaction is
	// never attempted — rewriting a few kilobytes buys nothing.
	spillCompactMinBytes = 1 << 20
	// spillCompactGarbageFactor triggers compaction when dead bytes
	// exceed live bytes by this factor.
	spillCompactGarbageFactor = 3
	// spillMaxKeptBuf bounds the frame buffer append keeps between
	// calls, so that a rare huge frame is not held for good.
	spillMaxKeptBuf = 1 << 20
)

// openSpill creates (or truncates) the spill file at path.
func openSpill(path string) (*spillFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &spillFile{f: f, path: path}, nil
}

// append writes payload as one frame at the end of the file and returns
// where it lies, for the caller to record in spilled. When garbage
// dominates the file, the frames spilled locates are compacted first.
// On an error no frame is added and every entry of spilled still
// locates its frame.
func (s *spillFile) append(payload []byte, spilled map[string]spillMeta) (off, n int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, 0, os.ErrClosed
	}
	if s.size >= spillCompactMinBytes && s.size-s.live > spillCompactGarbageFactor*s.live {
		if err := s.compactLocked(spilled); err != nil {
			return 0, 0, err
		}
	}
	frame := binfmt.AppendFrame(s.buf[:0], payload)
	if cap(frame) <= spillMaxKeptBuf {
		s.buf = frame[:0]
	}
	if _, err := s.f.WriteAt(frame, s.size); err != nil {
		return 0, 0, fmt.Errorf("appending spill frame: %w", err)
	}
	off, n = s.size, int64(len(frame))
	s.size += n
	s.live += n
	return off, n, nil
}

// read reads the frame at m onto the end of dst (which may be nil) and
// returns that grown buffer and the frame's payload within it, checked
// against its CRC. A caller can keep buf[:0] to reuse one buffer across
// reads.
func (s *spillFile) read(dst []byte, m spillMeta) (buf, payload []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil, nil, os.ErrClosed
	}
	start := len(dst)
	buf = append(dst, make([]byte, m.n)...)
	frame := buf[start:]
	if _, err := s.f.ReadAt(frame, m.off); err != nil {
		return nil, nil, fmt.Errorf("reading spill frame: %w", err)
	}
	payload, rest, err := binfmt.SplitFrame(frame)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes after the frame's payload", len(rest))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("spill frame: %w", err)
	}
	return buf, payload, nil
}

// free turns the frame at m into garbage once its entry leaves the map.
func (s *spillFile) free(m spillMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live -= m.n
}

// liveBytes returns the bytes of the frames the shard's map locates.
func (s *spillFile) liveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// compactLocked copies the frames spilled locates into a fresh file, in
// key order so the layout is reproducible, swaps it into place and
// rewrites spilled's offsets. On an error the old file and spilled are
// kept. The caller holds s.mu.
func (s *spillFile) compactLocked(spilled map[string]spillMeta) error {
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("creating spill compaction file: %w", err)
	}
	fail := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpPath)
		return err
	}
	ids := make([]string, 0, len(spilled))
	for id := range spilled {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var off int64
	var frame []byte
	for _, id := range ids {
		m := spilled[id]
		frame = append(frame[:0], make([]byte, m.n)...)
		if _, err := s.f.ReadAt(frame, m.off); err != nil {
			return fail(fmt.Errorf("compacting spill frame for %q: %w", id, err))
		}
		if _, err := tmp.WriteAt(frame, off); err != nil {
			return fail(fmt.Errorf("writing compacted spill frame for %q: %w", id, err))
		}
		off += m.n
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return fail(fmt.Errorf("swapping compacted spill file: %w", err))
	}
	_ = s.f.Close()
	s.f = tmp
	off = 0
	for _, id := range ids {
		m := spilled[id]
		m.off = off
		spilled[id] = m
		off += m.n
	}
	s.size, s.live = off, off
	return nil
}

// close releases the file handle and removes the file. Every later
// append and read fails: a closed file is never reopened, so no offset
// the map still holds can point into a newer file.
func (s *spillFile) close() error {
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
