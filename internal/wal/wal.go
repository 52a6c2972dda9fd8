// Package wal implements the durable backbone of an edge device: an
// append-only, length-prefixed, CRC32-checksummed write-ahead log with
// segment rotation, group-commit fsync policies, torn-tail truncation
// on open, and checkpoint-based compaction.
//
// The log stores opaque payloads, one binfmt frame each
//
//	[4B little-endian payload length][4B little-endian CRC32(payload)][payload]
//
// and records live in segment files named wal-<base>.seg where <base>
// is the LSN of the segment's first record — a record's LSN is its
// segment base plus its position, so the log needs no per-record LSN
// framing and a torn tail can never be mistaken for a gap.
//
// Durability model: every Append flushes the record to the operating
// system (a crashed process loses nothing); the fsync policy only
// decides when records survive a machine power-off. Sealed segments
// and checkpoints are always fsynced regardless of policy.
//
// The package is deliberately ignorant of what the payloads mean:
// internal/core encodes its logical records (reports, rebuilds, tops
// syncs, ad requests) and replays them through Engine.ApplyRecord.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binfmt"
)

// SyncPolicy decides when appended records are fsynced to stable
// storage.
type SyncPolicy int

const (
	// SyncInterval fsyncs in the background every Options.Interval —
	// the default. Bounded data loss on power failure, near-zero
	// per-append cost.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before Append returns (group commit: one
	// fsync covers every append waiting on it).
	SyncAlways
	// SyncNever leaves fsync to segment seals and Close. Records
	// still reach the OS on every append, so only a machine crash —
	// not a process crash — can lose them.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return "unknown"
}

// ParsePolicy parses a -fsync flag value: "always", "never",
// "interval", or "interval=<duration>". The returned duration is zero
// unless the form carries one; Open substitutes DefaultSyncInterval.
func ParsePolicy(s string) (SyncPolicy, time.Duration, error) {
	switch {
	case s == "always":
		return SyncAlways, 0, nil
	case s == "never":
		return SyncNever, 0, nil
	case s == "interval":
		return SyncInterval, 0, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil {
			return 0, 0, fmt.Errorf("wal: bad fsync interval %q: %w", s, err)
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("wal: fsync interval must be positive, got %v", d)
		}
		return SyncInterval, d, nil
	}
	return 0, 0, fmt.Errorf(`wal: unknown fsync policy %q (want "always", "never", "interval" or "interval=<duration>")`, s)
}

const (
	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes int64 = 64 << 20
	// DefaultSyncInterval is the SyncInterval period when
	// Options.Interval is zero.
	DefaultSyncInterval = 100 * time.Millisecond
	// MaxRecordBytes bounds a single record: the frame's payload bound.
	// Larger appends are rejected, so a corrupt length prefix can never
	// trigger a huge allocation during recovery.
	MaxRecordBytes = binfmt.MaxPayload

	headerSize = binfmt.HeaderSize

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
)

// Options configures a Store. The zero value is usable: 64 MiB
// segments, background fsync every 100 ms.
type Options struct {
	// SegmentBytes rotates the active segment once appending a record
	// would push it past this size. Zero selects DefaultSegmentBytes.
	SegmentBytes int64
	// Policy picks the fsync policy; the zero value is SyncInterval.
	Policy SyncPolicy
	// Interval is the background fsync period under SyncInterval.
	// Zero selects DefaultSyncInterval.
	Interval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Interval <= 0 {
		o.Interval = DefaultSyncInterval
	}
	return o
}

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("wal: store closed")

// Store is a segmented write-ahead log plus its checkpoint files, all
// living in one directory. Append and Sync are safe for concurrent
// use; Replay must not run concurrently with Append (recovery happens
// before serving starts).
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	cond       *sync.Cond // signals fsync completion; waiters under mu
	f          *os.File   // active segment
	w          *bufio.Writer
	sealed     []uint64 // base LSNs of sealed segments, ascending
	activeBase uint64   // base LSN of the active segment
	segSize    int64    // bytes in the active segment
	appendSeq  uint64   // appends issued (group-commit cohort ticket)
	syncedSeq  uint64   // appends known durable
	syncing    bool     // an fsync is in flight
	closed     bool
	err        error // sticky: an fsync/write failure poisons the store

	stop         chan struct{} // interval-fsync goroutine shutdown
	intervalDone chan struct{}

	nextLSN   atomic.Uint64
	tornBytes int64 // bytes truncated from the tail at Open

	// Always-on counters; surfaced by Instrument.
	appends     atomic.Uint64
	bytesW      atomic.Uint64
	fsyncs      atomic.Uint64
	replayed    atomic.Uint64
	checkpoints atomic.Uint64
	ckptDur     atomic.Uint64 // float64 bits, seconds
	ckptBytes   atomic.Int64

	met atomic.Pointer[storeMetrics]
}

// Open opens (or creates) the log directory: leftover temp files from
// interrupted checkpoint writes are removed, the final segment is
// scanned and any torn tail — a partially-written last record — is
// truncated away, and the next LSN is derived from the surviving
// records and the newest checkpoint.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	bases, ckpts, tmps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	for _, tmp := range tmps {
		// A temp file is an interrupted checkpoint write — never
		// renamed, so never authoritative.
		if err := os.Remove(filepath.Join(dir, tmp)); err != nil {
			return nil, fmt.Errorf("wal: removing leftover %s: %w", tmp, err)
		}
	}
	var maxCkpt uint64
	if len(ckpts) > 0 {
		maxCkpt = slices.Max(ckpts)
	}

	s := &Store{dir: dir, opts: opts}
	s.cond = sync.NewCond(&s.mu)

	next := maxCkpt
	if len(bases) > 0 {
		last := bases[len(bases)-1]
		count, validLen, err := scanSegment(filepath.Join(dir, segmentName(last)))
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(dir, segmentName(last)), os.O_RDWR, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: opening active segment: %w", err)
		}
		if fi, err := f.Stat(); err == nil && fi.Size() > validLen {
			s.tornBytes = fi.Size() - validLen
			if err := f.Truncate(validLen); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", segmentName(last), err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: fsyncing truncated %s: %w", segmentName(last), err)
			}
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seeking %s: %w", segmentName(last), err)
		}
		s.sealed = bases[:len(bases)-1]
		s.activeBase = last
		s.segSize = validLen
		s.f = f
		s.w = bufio.NewWriterSize(f, 1<<16)
		next = last + count
		if maxCkpt > next {
			// The newest checkpoint covers records that never
			// survived to disk (checkpointed from the OS cache,
			// then lost to a power failure before their fsync).
			// Their state is safe inside the checkpoint, but the
			// LSN slots are burned: seal the log as-is and start a
			// fresh segment at the checkpoint LSN so positional
			// LSNs stay consistent.
			if err := f.Close(); err != nil {
				return nil, fmt.Errorf("wal: sealing %s: %w", segmentName(last), err)
			}
			s.sealed = bases
			s.f = nil
			next = maxCkpt
		}
	}
	if s.f == nil {
		f, err := createSegment(dir, next)
		if err != nil {
			return nil, err
		}
		s.activeBase = next
		s.segSize = 0
		s.f = f
		s.w = bufio.NewWriterSize(f, 1<<16)
	}
	s.nextLSN.Store(next)

	if opts.Policy == SyncInterval {
		s.stop = make(chan struct{})
		s.intervalDone = make(chan struct{})
		go s.runInterval(opts.Interval, s.stop)
	}
	return s, nil
}

// scanDir classifies directory entries into segment bases, checkpoint
// LSNs (both ascending) and leftover temp files.
func scanDir(dir string) (bases, ckpts []uint64, tmps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			tmps = append(tmps, name)
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("wal: unparseable segment name %s", name)
			}
			bases = append(bases, n)
		case strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix):
			n, err := strconv.ParseUint(name[len(ckptPrefix):len(name)-len(ckptSuffix)], 10, 64)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("wal: unparseable checkpoint name %s", name)
			}
			ckpts = append(ckpts, n)
		}
	}
	slices.Sort(bases)
	slices.Sort(ckpts)
	return bases, ckpts, tmps, nil
}

// scanSegment walks a segment and returns how many records are intact
// and where the valid prefix ends. The first invalid record — short
// header, short payload, zero length, or CRC mismatch — ends the scan:
// on the final segment that is the torn tail.
func scanSegment(path string) (count uint64, validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: scanning segment: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var buf []byte
	for {
		// A record is never empty, so an empty frame is a zero-filled
		// tail, not a record.
		if buf, err = binfmt.ReadFrame(br, buf); err != nil || len(buf) == 0 {
			return count, validLen, nil
		}
		count++
		validLen += headerSize + int64(len(buf))
	}
}

func segmentName(base uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix)
}

func checkpointName(lsn uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, lsn, ckptSuffix)
}

// createSegment creates a fresh segment file and makes its directory
// entry durable.
func createSegment(dir string, base uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segmentName(base)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so renames and creates inside it survive
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsyncing dir %s: %w", dir, err)
	}
	return nil
}

// Dir returns the directory the store lives in.
func (s *Store) Dir() string { return s.dir }

// NextLSN returns the LSN the next appended record will receive.
func (s *Store) NextLSN() uint64 { return s.nextLSN.Load() }

// TornBytes reports how many trailing bytes Open discarded as a torn
// tail.
func (s *Store) TornBytes() int64 { return s.tornBytes }

// Append writes one record and returns its LSN. The record is flushed
// to the OS before Append returns; under SyncAlways it is also fsynced
// (group commit: concurrent appends share one fsync).
func (s *Store) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("wal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: %d byte record exceeds limit %d", len(payload), MaxRecordBytes)
	}
	recLen := int64(headerSize + len(payload))
	var hdr [headerSize]byte
	binfmt.AppendHeader(hdr[:0], payload)

	s.mu.Lock()
	for s.err == nil && !s.closed && s.segSize > 0 && s.segSize+recLen > s.opts.SegmentBytes {
		if s.syncing {
			// Rotation seals the active file; wait out any fsync
			// targeting it first.
			s.cond.Wait()
			continue
		}
		if err := s.rotateLocked(); err != nil {
			s.err = fmt.Errorf("wal: rotating segment: %w", err)
		}
	}
	switch {
	case s.closed:
		s.mu.Unlock()
		return 0, ErrClosed
	case s.err != nil:
		err := s.err
		s.mu.Unlock()
		return 0, err
	}
	// The payload is written apart from the header, so one larger than
	// the writer's buffer goes to the file uncopied.
	if _, err := s.w.Write(append(s.w.AvailableBuffer(), hdr[:]...)); err != nil {
		s.err = fmt.Errorf("wal: writing record header: %w", err)
	} else if _, err := s.w.Write(payload); err != nil {
		s.err = fmt.Errorf("wal: writing record payload: %w", err)
	} else if err := s.w.Flush(); err != nil {
		// Flush on every append: a process crash (as opposed to a
		// power failure) never loses an acknowledged record.
		s.err = fmt.Errorf("wal: flushing record: %w", err)
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return 0, err
	}
	lsn := s.nextLSN.Add(1) - 1
	s.segSize += recLen
	s.appendSeq++
	seq := s.appendSeq
	s.appends.Add(1)
	s.bytesW.Add(uint64(recLen))
	policy := s.opts.Policy
	s.mu.Unlock()

	if policy == SyncAlways {
		if err := s.syncTo(seq); err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}

// rotateLocked seals the active segment (flush + fsync + close — a
// sealed segment is durable under every policy) and starts a fresh one.
// Caller holds s.mu with s.syncing false.
func (s *Store) rotateLocked() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	// Everything appended so far lives in the sealed, fsynced file.
	s.syncedSeq = s.appendSeq
	s.cond.Broadcast()
	s.sealed = append(s.sealed, s.activeBase)
	base := s.nextLSN.Load()
	f, err := createSegment(s.dir, base)
	if err != nil {
		return err
	}
	s.f = f
	s.w.Reset(f)
	s.activeBase = base
	s.segSize = 0
	return nil
}

// Sync blocks until every record appended so far is durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	seq := s.appendSeq
	s.mu.Unlock()
	return s.syncTo(seq)
}

// syncTo blocks until append cohort seq is durable, issuing an fsync
// if nobody else's covers it (group commit: one fsync acknowledges the
// whole waiting cohort). An fsync failure poisons the store: the write
// cache state is unknowable afterwards, so every later operation fails.
func (s *Store) syncTo(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && s.syncedSeq < seq {
		if s.syncing {
			s.cond.Wait()
			continue
		}
		s.syncing = true
		f, cover := s.f, s.appendSeq
		met := s.met.Load()
		s.mu.Unlock()

		start := time.Now()
		err := f.Sync()
		if met != nil {
			met.fsyncSeconds.Observe(time.Since(start).Seconds())
		}

		s.mu.Lock()
		s.fsyncs.Add(1)
		s.syncing = false
		switch {
		case err != nil:
			s.err = fmt.Errorf("wal: fsync: %w", err)
		case cover > s.syncedSeq:
			s.syncedSeq = cover
		}
		s.cond.Broadcast()
	}
	return s.err
}

func (s *Store) runInterval(d time.Duration, stop <-chan struct{}) {
	defer close(s.intervalDone)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// A failure is sticky and resurfaces on the next append.
			_ = s.Sync()
		}
	}
}

// Replay streams every intact record with LSN >= from, in LSN order.
// Corruption anywhere except the already-truncated tail aborts the
// replay — unlike a torn tail it means records acknowledged as durable
// are gone. Replay must not run concurrently with Append.
func (s *Store) Replay(from uint64, fn func(lsn uint64, rec []byte) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.w.Flush(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("wal: flushing before replay: %w", err)
	}
	segs := append(append([]uint64(nil), s.sealed...), s.activeBase)
	next := s.nextLSN.Load()
	s.mu.Unlock()

	if from >= next {
		return nil
	}
	var buf []byte
	first := true
	for i, base := range segs {
		end := next
		if i+1 < len(segs) {
			end = segs[i+1]
		}
		if end <= from {
			continue
		}
		if first && base > from {
			return fmt.Errorf("wal: records [%d,%d) missing: oldest surviving segment starts at %d", from, base, base)
		}
		first = false
		f, err := os.Open(filepath.Join(s.dir, segmentName(base)))
		if err != nil {
			return fmt.Errorf("wal: opening segment for replay: %w", err)
		}
		br := bufio.NewReaderSize(f, 1<<16)
		for lsn := base; lsn < end; lsn++ {
			if buf, err = binfmt.ReadFrame(br, buf); err == nil && len(buf) == 0 {
				err = errors.New("empty record")
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("wal: segment %s: record %d: %w", segmentName(base), lsn, err)
			}
			if lsn < from {
				continue
			}
			s.replayed.Add(1)
			if err := fn(lsn, buf); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// Close seals the log: final flush + fsync + close. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.closed = true
	stop := s.stop
	s.stop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-s.intervalDone
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		s.cond.Wait()
	}
	var errs []error
	if err := s.w.Flush(); err != nil {
		errs = append(errs, fmt.Errorf("wal: final flush: %w", err))
	}
	if err := s.f.Sync(); err != nil {
		errs = append(errs, fmt.Errorf("wal: final fsync: %w", err))
	}
	if err := s.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("wal: closing segment: %w", err))
	}
	if err := errors.Join(errs...); err != nil && s.err == nil {
		s.err = err
	}
	s.syncedSeq = s.appendSeq
	s.cond.Broadcast()
	return errors.Join(errs...)
}
