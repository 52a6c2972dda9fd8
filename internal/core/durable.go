package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/binfmt"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/tracing"
)

// Durability: the engine is a deterministic state machine — given the
// same per-user input order (and the snapshot-restored PRNG position),
// replaying the same operations reproduces byte-identical state. The
// hooks below exploit that: every mutating operation (and Request,
// which advances the per-user PRNG even though it returns data) emits
// one compact logical record to an attached log AFTER the shard-local
// apply, while still holding the user's lock so per-user order in the
// log matches apply order. Recovery is Restore(latest checkpoint) +
// replay of the log tail through ApplyRecord.
//
// This is what makes the paper's privacy invariant survive kill -9:
// losing the permanent obfuscation table — or even just the per-user
// PRNG position consumed by posterior selection — would force a second
// independent (r, ε, δ, n) release for the same top locations, exactly
// the longitudinal degradation of Section III.

// Durability is the minimal sink the engine logs to; *wal.Store
// implements it. Append must be safe for concurrent use.
type Durability interface {
	// Append durably orders one record and returns its LSN.
	Append(rec []byte) (uint64, error)
	// NextLSN returns the LSN the next record will receive.
	NextLSN() uint64
}

// DurableStore is the full recovery surface; *wal.Store implements it.
type DurableStore interface {
	Durability
	// LatestCheckpoint opens the newest checkpoint; ok is false on a
	// cold store.
	LatestCheckpoint() (lsn uint64, r io.ReadCloser, ok bool, err error)
	// Replay streams records with LSN >= from in order.
	Replay(from uint64, fn func(lsn uint64, rec []byte) error) error
}

// ErrCorruptRecord reports a durability record that cannot be decoded;
// unlike an operation-level replay error (a deterministic reproduction
// of a failure the live engine already returned once) it aborts
// recovery.
var ErrCorruptRecord = errors.New("core: corrupt durability record")

// durHolder wraps the attached sink behind one atomic pointer so the
// non-durable hot path pays a single nil-check.
type durHolder struct {
	d Durability
}

// SetDurability attaches (or with nil, detaches) the durability sink.
// Attach before serving: operations already in flight may miss the log.
// An Append failure surfaces as the operation's error with the state
// change already applied — crash-equivalent semantics, matching what a
// client must assume after any error.
func (e *Engine) SetDurability(d Durability) {
	if d == nil {
		e.dur.Store(nil)
		return
	}
	e.dur.Store(&durHolder{d: d})
}

var recBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// emit encodes one record into a pooled buffer and appends it to the
// log. update calls it under the user's lock so the log preserves
// per-user apply order. The append (group commit + fsync wait
// included) is timed as the request's WAL span when ctx carries a
// trace.
func (h *durHolder) emit(ctx context.Context, enc func(b []byte) []byte) error {
	_, sp := tracing.StartSpan(ctx, tracing.StageWAL)
	defer sp.End()
	bp := recBufPool.Get().(*[]byte)
	buf := enc((*bp)[:0])
	_, err := h.d.Append(buf)
	*bp = buf[:0]
	recBufPool.Put(bp)
	if err != nil {
		return fmt.Errorf("core: appending durability record: %w", err)
	}
	return nil
}

// Record type tags. The payload after the tag is in binfmt's layouts.
// Tag 6 is retired: it was an import record with a per-entry layout of
// its own, and recovery now rejects it as an unknown tag.
const (
	recReport      byte = 1 // user, pos, at
	recBatch       byte = 2 // user, n, n×(pos, at) — one per-user run
	recRebuild     byte = 3 // user, now
	recInstallTops byte = 4 // user, now, tops
	recSyncTops    byte = 5 // user, now, tops
	recRequest     byte = 7 // user, truePos (advances the user PRNG)
	recImport      byte = 8 // user, then the packed table suffix as imported
)

func appendTops(b []byte, tops profile.Profile) []byte {
	b = binfmt.AppendUvarint(b, uint64(len(tops)))
	for _, lf := range tops {
		b = binfmt.AppendPoint(b, lf.Loc)
		b = binfmt.AppendVarint(b, int64(lf.Freq))
	}
	return b
}

// readTops inverts appendTops; an empty top set reads as nil.
func readTops(r *binfmt.Reader) profile.Profile {
	n := r.Count(17) // 16B point + ≥1B freq
	if n == 0 {
		return nil
	}
	tops := make(profile.Profile, 0, n)
	for i := 0; i < n; i++ {
		loc := r.Point()
		freq := r.Int()
		tops = append(tops, profile.LocationFreq{Loc: loc, Freq: freq})
	}
	return tops
}

// finish wraps a reader failure, or bytes left unread, in
// ErrCorruptRecord.
func finish(r *binfmt.Reader) error {
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	return nil
}

func encodeReport(b []byte, userID string, pos geo.Point, at time.Time) []byte {
	b = append(b, recReport)
	b = binfmt.AppendString(b, userID)
	b = binfmt.AppendPoint(b, pos)
	return binfmt.AppendTime(b, at)
}

func encodeBatchRun(b []byte, userID string, items []BatchReport, idx []int) []byte {
	b = append(b, recBatch)
	b = binfmt.AppendString(b, userID)
	n := len(idx)
	if idx == nil {
		n = len(items)
	}
	b = binfmt.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		j := i
		if idx != nil {
			j = idx[i]
		}
		b = binfmt.AppendPoint(b, items[j].Pos)
		b = binfmt.AppendTime(b, items[j].At)
	}
	return b
}

func encodeRebuild(b []byte, userID string, now time.Time) []byte {
	b = append(b, recRebuild)
	b = binfmt.AppendString(b, userID)
	return binfmt.AppendTime(b, now)
}

func encodeTops(b []byte, tag byte, userID string, tops profile.Profile, now time.Time) []byte {
	b = append(b, tag)
	b = binfmt.AppendString(b, userID)
	b = binfmt.AppendTime(b, now)
	return appendTops(b, tops)
}

func encodeImport(b []byte, userID string, suffix []byte) []byte {
	b = append(b, recImport)
	b = binfmt.AppendString(b, userID)
	return append(b, suffix...)
}

func encodeRequest(b []byte, userID string, truePos geo.Point) []byte {
	b = append(b, recRequest)
	b = binfmt.AppendString(b, userID)
	return binfmt.AppendPoint(b, truePos)
}

// ApplyRecord replays one logical record through the normal engine
// entry points. Decode failures wrap ErrCorruptRecord; any other error
// is an operation-level error the live engine already returned once —
// a deterministic reproduction, safe to count and skip. Call it only
// before SetDurability, or the replayed operations would be re-logged.
func (e *Engine) ApplyRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("%w: empty", ErrCorruptRecord)
	}
	r := binfmt.NewReader(rec[1:])
	user := r.Str()
	switch tag := rec[0]; tag {
	case recReport:
		pos := r.Point()
		at := r.Time()
		if err := finish(&r); err != nil {
			return err
		}
		return e.Report(user, pos, at)
	case recBatch:
		n := r.Count(17) // point is 16 bytes, time ≥ 1
		items := make([]BatchReport, 0, n)
		for i := 0; i < n; i++ {
			pos := r.Point()
			at := r.Time()
			items = append(items, BatchReport{UserID: user, Pos: pos, At: at})
		}
		if err := finish(&r); err != nil {
			return err
		}
		if errs := e.ReportBatch(items); len(errs) > 0 {
			return errs[0].Err
		}
		return nil
	case recRebuild:
		now := r.Time()
		if err := finish(&r); err != nil {
			return err
		}
		return e.RebuildProfile(user, now)
	case recInstallTops, recSyncTops:
		now := r.Time()
		tops := readTops(&r)
		if err := finish(&r); err != nil {
			return err
		}
		if tag == recInstallTops {
			return e.InstallTops(user, tops, now)
		}
		return e.SyncTops(user, tops, now)
	case recImport:
		suffix := r.Rest()
		if err := finish(&r); err != nil {
			return err
		}
		return e.ImportTable(user, suffix)
	case recRequest:
		pos := r.Point()
		if err := finish(&r); err != nil {
			return err
		}
		_, _, err := e.Request(user, pos)
		return err
	default:
		return fmt.Errorf("%w: unknown tag %d", ErrCorruptRecord, tag)
	}
}

// Checkpoint captures a consistent snapshot and the LSN it covers:
// every record with a smaller LSN is inside the snapshot, every later
// record must be replayed on top of it. The checkpoint write lock
// briefly stops the world — loggable operations block between their
// apply and the snapshot, never straddling it — and the snapshot is
// serialised to memory under the lock so the pause excludes disk I/O.
// Hand the result to wal.Store.WriteCheckpoint.
func (e *Engine) Checkpoint() (lsn uint64, data []byte, err error) {
	h := e.dur.Load()
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if h != nil {
		lsn = h.d.NextLSN()
	}
	if data, err = e.appendSnapshot(nil); err != nil {
		return 0, nil, err
	}
	return lsn, data, nil
}

// RecoveryStats summarises a Recover call.
type RecoveryStats struct {
	// CheckpointLSN is the log position the restored checkpoint
	// covered; zero on a cold store.
	CheckpointLSN uint64
	// Replayed counts log records applied on top of the checkpoint.
	Replayed int
	// OpErrors counts replayed records whose operation returned an
	// error — deterministic reproductions of failures the live engine
	// already reported (e.g. a rebuild over malformed input), not
	// corruption.
	OpErrors int
}

// Recover rebuilds engine state from st — Restore of the latest
// checkpoint, then replay of the log tail — and on success attaches st
// as the engine's durability sink. The engine must be fresh: recovery
// into live state would interleave two histories. After Recover the
// engine is byte-identical (TableFingerprint, Snapshot) to the one
// that wrote the log, minus only a torn final record.
func (e *Engine) Recover(st DurableStore) (RecoveryStats, error) {
	var stats RecoveryStats
	if e.nUsers.Load() != 0 {
		return stats, errors.New("core: refusing to recover into a non-empty engine")
	}
	from, r, ok, err := st.LatestCheckpoint()
	if err != nil {
		return stats, fmt.Errorf("core: locating checkpoint: %w", err)
	}
	if ok {
		restoreErr := e.Restore(r)
		if cerr := r.Close(); restoreErr == nil && cerr != nil {
			restoreErr = cerr
		}
		if restoreErr != nil {
			return stats, fmt.Errorf("core: restoring checkpoint at lsn %d: %w", from, restoreErr)
		}
		stats.CheckpointLSN = from
	}
	err = st.Replay(from, func(_ uint64, rec []byte) error {
		stats.Replayed++
		switch err := e.ApplyRecord(rec); {
		case err == nil:
		case errors.Is(err, ErrCorruptRecord):
			return err
		default:
			stats.OpErrors++
		}
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("core: replaying log tail: %w", err)
	}
	e.SetDurability(st)
	return stats, nil
}
