package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

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

// durBegin enters a logged operation: it returns the attached sink (nil
// when durability is off) and, when attached, takes the checkpoint read
// lock so no checkpoint can interleave between the state apply and its
// log record. Pair with durEnd.
func (e *Engine) durBegin() *durHolder {
	h := e.dur.Load()
	if h == nil {
		return nil
	}
	e.ckptMu.RLock()
	return h
}

func (e *Engine) durEnd(h *durHolder) {
	if h != nil {
		e.ckptMu.RUnlock()
	}
}

var recBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// emit encodes one record into a pooled buffer and appends it to the
// log. Callers hold the user's lock so the log preserves per-user apply
// order. The append (group commit + fsync wait included) is timed as
// the request's WAL span when ctx carries a trace.
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

// Record type tags. The payload after the tag is compact binary:
// uvarint lengths/counts, little-endian float64 bits, varint
// seconds+nanos timestamps.
const (
	recReport      byte = 1 // user, pos, at
	recBatch       byte = 2 // user, n, n×(pos, at) — one per-user run
	recRebuild     byte = 3 // user, now
	recInstallTops byte = 4 // user, now, tops
	recSyncTops    byte = 5 // user, now, tops
	recImport      byte = 6 // user, entries
	recRequest     byte = 7 // user, truePos (advances the user PRNG)
)

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendPoint(b []byte, p geo.Point) []byte {
	b = appendF64(b, p.X)
	return appendF64(b, p.Y)
}

// appendTime preserves the instant exactly (and the zero value exactly:
// Report treats a zero windowStart as "unset", so a replayed zero time
// must stay zero, not become an equal-instant non-zero Time).
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendVarint(b, int64(t.Nanosecond()))
}

func appendTops(b []byte, tops profile.Profile) []byte {
	b = binary.AppendUvarint(b, uint64(len(tops)))
	for _, lf := range tops {
		b = appendPoint(b, lf.Loc)
		b = binary.AppendVarint(b, int64(lf.Freq))
	}
	return b
}

func encodeReport(b []byte, userID string, pos geo.Point, at time.Time) []byte {
	b = append(b, recReport)
	b = appendStr(b, userID)
	b = appendPoint(b, pos)
	return appendTime(b, at)
}

func encodeBatchRun(b []byte, userID string, items []BatchReport, idx []int) []byte {
	b = append(b, recBatch)
	b = appendStr(b, userID)
	n := len(idx)
	if idx == nil {
		n = len(items)
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		j := i
		if idx != nil {
			j = idx[i]
		}
		b = appendPoint(b, items[j].Pos)
		b = appendTime(b, items[j].At)
	}
	return b
}

func encodeRebuild(b []byte, userID string, now time.Time) []byte {
	b = append(b, recRebuild)
	b = appendStr(b, userID)
	return appendTime(b, now)
}

func encodeTops(b []byte, tag byte, userID string, tops profile.Profile, now time.Time) []byte {
	b = append(b, tag)
	b = appendStr(b, userID)
	b = appendTime(b, now)
	return appendTops(b, tops)
}

func encodeImport(b []byte, userID string, entries []TableEntry) []byte {
	b = append(b, recImport)
	b = appendStr(b, userID)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, entry := range entries {
		b = appendPoint(b, entry.Top)
		b = appendTime(b, entry.CreatedAt)
		b = binary.AppendUvarint(b, uint64(len(entry.Candidates)))
		for _, c := range entry.Candidates {
			b = appendPoint(b, c)
		}
	}
	return b
}

func encodeRequest(b []byte, userID string, truePos geo.Point) []byte {
	b = append(b, recRequest)
	b = appendStr(b, userID)
	return appendPoint(b, truePos)
}

// recReader decodes a record payload with a sticky error.
type recReader struct {
	b   []byte
	err error
}

func (r *recReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorruptRecord, what)
	}
}

func (r *recReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) str(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail(what)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *recReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *recReader) point(what string) geo.Point {
	return geo.Point{X: r.f64(what), Y: r.f64(what)}
}

func (r *recReader) time(what string) time.Time {
	if r.err != nil {
		return time.Time{}
	}
	if len(r.b) < 1 {
		r.fail(what)
		return time.Time{}
	}
	flag := r.b[0]
	r.b = r.b[1:]
	if flag == 0 {
		return time.Time{}
	}
	sec := r.varint(what)
	nsec := r.varint(what)
	// UTC for the same reason the wire codec normalizes on decode: a
	// replayed or faulted-in instant must read back identically to the
	// live one regardless of host zone.
	return time.Unix(sec, nsec).UTC()
}

func (r *recReader) count(what string, itemFloor int) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	// A corrupt count must not trigger a huge allocation: every item
	// occupies at least itemFloor bytes of the remaining payload.
	if itemFloor > 0 && n > uint64(len(r.b)/itemFloor) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

func (r *recReader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s", ErrCorruptRecord, len(r.b), what)
	}
	return nil
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
	r := &recReader{b: rec[1:]}
	switch tag := rec[0]; tag {
	case recReport:
		user := r.str("report user")
		pos := r.point("report pos")
		at := r.time("report time")
		if err := r.done("report"); err != nil {
			return err
		}
		return e.Report(user, pos, at)
	case recBatch:
		user := r.str("batch user")
		n := r.count("batch", 17) // point is 16 bytes, time ≥ 1
		items := make([]BatchReport, 0, n)
		for i := 0; i < n; i++ {
			pos := r.point("batch pos")
			at := r.time("batch time")
			items = append(items, BatchReport{UserID: user, Pos: pos, At: at})
		}
		if err := r.done("batch"); err != nil {
			return err
		}
		if errs := e.ReportBatch(items); len(errs) > 0 {
			return errs[0].Err
		}
		return nil
	case recRebuild:
		user := r.str("rebuild user")
		now := r.time("rebuild time")
		if err := r.done("rebuild"); err != nil {
			return err
		}
		return e.RebuildProfile(user, now)
	case recInstallTops, recSyncTops:
		user := r.str("tops user")
		now := r.time("tops time")
		n := r.count("tops", 17)
		tops := make(profile.Profile, 0, n)
		for i := 0; i < n; i++ {
			loc := r.point("top loc")
			freq := r.varint("top freq")
			tops = append(tops, profile.LocationFreq{Loc: loc, Freq: int(freq)})
		}
		if err := r.done("tops"); err != nil {
			return err
		}
		if tag == recInstallTops {
			return e.InstallTops(user, tops, now)
		}
		return e.SyncTops(user, tops, now)
	case recImport:
		user := r.str("import user")
		n := r.count("import entries", 18) // top 16, time ≥ 1, count ≥ 1
		entries := make([]TableEntry, 0, n)
		for i := 0; i < n; i++ {
			var entry TableEntry
			entry.Top = r.point("import top")
			entry.CreatedAt = r.time("import time")
			m := r.count("import candidates", 16)
			entry.Candidates = make([]geo.Point, 0, m)
			for j := 0; j < m; j++ {
				entry.Candidates = append(entry.Candidates, r.point("import candidate"))
			}
			entries = append(entries, entry)
		}
		if err := r.done("import"); err != nil {
			return err
		}
		return e.ImportTable(user, entries)
	case recRequest:
		user := r.str("request user")
		pos := r.point("request pos")
		if err := r.done("request"); err != nil {
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
