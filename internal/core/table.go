// Package core implements the Edge-PrivLocAd engine of the paper
// (Section V): the location management module (windowed profile
// construction and η-frequent top-location sets), the location
// obfuscation module (a permanent obfuscation table mapping every top
// location to its n-fold Gaussian candidate set), and the output
// selection module (posterior-based sampling, Algorithm 4), together with
// the AOI-based ad filtering the edge performs on behalf of the user.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/spatial"
)

// TableEntry is one row of the obfuscation table T: a top location and
// its permanently recorded obfuscated candidates.
type TableEntry struct {
	// Top is the true top location this entry protects.
	Top geo.Point `json:"top"`
	// Candidates are the obfuscated locations generated once and reused
	// for every exposure of Top. Entries returned by table accessors
	// share the table's backing storage: treat Candidates as read-only.
	Candidates []geo.Point `json:"candidates"`
	// CreatedAt records when the entry was generated.
	CreatedAt time.Time `json:"created_at"`
}

// ObfuscationTable is the permanent mapping T from top locations to their
// obfuscated candidate sets (Section V-C). Entries are never replaced:
// re-obfuscating a top location on later profile rebuilds would degrade
// privacy exactly the way the longitudinal attack exploits, so lookups
// match any previously recorded top within the match radius.
//
// The table is stored packed, not boxed: all candidate points live in one
// contiguous arena with per-entry offsets, tops and creation instants in
// parallel flat slices. At a million resident users this is the
// difference between three slice headers plus a map-backed spatial index
// per user and a handful of cache-friendly arrays — and it makes the
// evict/fault-in codec a straight array copy (packed.go). Creation
// instants are held as int64 unix-nanos and materialized as UTC
// time.Time values on read; the zero time is kept distinct with a
// sentinel so "no timestamp" round-trips exactly.
//
// The spatial index over tops is built lazily, only once a table has
// enough entries that linear nearest-neighbour scans stop being cheaper
// than the index's maps — so the long tail of cold users with a few
// entries (and every freshly faulted-in table) never pays for a resident
// spatial.Grid at all.
//
// The table's fingerprint is kept once State has computed it: the table
// is append-only, so each append extends the kept value instead of the
// next State refolding every entry. A restored or faulted-in table
// starts without it, so loading a table hashes nothing.
//
// The table is safe for concurrent use.
type ObfuscationTable struct {
	mu          sync.RWMutex
	matchRadius float64
	tops        []geo.Point
	createdNs   []int64
	offs        []uint32 // entry i's candidates are arena[offs[i]:offs[i+1]] (end = len(arena) for the last entry)
	arena       []geo.Point
	index       *spatial.Grid // nil until the table outgrows linear scans
	// fp is the fingerprint of the whole table while fpKept is set.
	// State sets both under the read lock, so they are atomics; appends
	// update fp under the write lock.
	fp     atomic.Uint64
	fpKept atomic.Bool
}

// tableIndexThreshold is the entry count at which a table builds its
// spatial index. Below it a linear scan over the flat tops slice is
// both faster and far smaller than the grid's maps.
const tableIndexThreshold = 32

// zeroCreatedNs is the in-table sentinel for the zero time.Time.
// time.Time{}.UnixNano() overflows (its instant predates the int64
// nanosecond range), so the zero value needs an explicit marker to
// survive the packed encoding; MinInt64 is unreachable by any
// representable instant.
const zeroCreatedNs = math.MinInt64

// zeroTimeUnixNano is the (overflowed, but deterministic) value
// time.Time{}.UnixNano() yields — the value fingerprints have always
// folded for a zero CreatedAt, preserved for chain compatibility.
var zeroTimeUnixNano = time.Time{}.UnixNano()

// timeToNanos packs a creation instant for the flat layout.
func timeToNanos(t time.Time) int64 {
	if t.IsZero() {
		return zeroCreatedNs
	}
	return t.UnixNano()
}

// nanosToTime is the inverse of timeToNanos. Instants come back in UTC:
// all serving inputs are UTC already (the wire codec normalizes on
// decode), and a fixed zone keeps snapshot bytes host-independent.
func nanosToTime(ns int64) time.Time {
	if ns == zeroCreatedNs {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// fingerprintNanos maps a packed creation instant to the value the
// fingerprint chain folds (see ExtendFingerprint).
func fingerprintNanos(ns int64) int64 {
	if ns == zeroCreatedNs {
		return zeroTimeUnixNano
	}
	return ns
}

// NewObfuscationTable builds an empty table. matchRadius decides when a
// newly computed top location is "the same place" as a recorded one;
// the paper's 50 m connectivity threshold is the natural choice.
func NewObfuscationTable(matchRadius float64) (*ObfuscationTable, error) {
	if !(matchRadius > 0) || math.IsInf(matchRadius, 0) {
		return nil, fmt.Errorf("core: table match radius %g must be positive and finite", matchRadius)
	}
	return &ObfuscationTable{matchRadius: matchRadius}, nil
}

// MatchRadius returns the configured identity radius.
func (t *ObfuscationTable) MatchRadius() float64 {
	return t.matchRadius
}

// Len returns the number of recorded top locations.
func (t *ObfuscationTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tops)
}

// candsLocked returns entry i's candidate window of the arena. The
// caller holds t.mu (either side).
func (t *ObfuscationTable) candsLocked(i int) []geo.Point {
	end := len(t.arena)
	if i+1 < len(t.offs) {
		end = int(t.offs[i+1])
	}
	return t.arena[t.offs[i]:end:end]
}

// entryLocked materializes entry i. Candidates alias the arena (the
// same sharing the boxed layout's Entries had): read-only by contract.
func (t *ObfuscationTable) entryLocked(i int) TableEntry {
	return TableEntry{
		Top:        t.tops[i],
		Candidates: t.candsLocked(i),
		CreatedAt:  nanosToTime(t.createdNs[i]),
	}
}

// Lookup returns the entry whose top location is nearest to p within the
// match radius. The boolean reports whether such an entry exists.
func (t *ObfuscationTable) Lookup(p geo.Point) (TableEntry, bool) {
	t.mu.RLock()
	if t.index == nil && len(t.tops) >= tableIndexThreshold {
		// The table has outgrown linear scans but holds no index (cold:
		// freshly faulted in, or just past the threshold). Upgrade to the
		// write lock and build it on demand.
		t.mu.RUnlock()
		t.mu.Lock()
		t.ensureIndexLocked()
		id, ok := t.lookupLocked(p)
		var entry TableEntry
		if ok {
			entry = t.entryLocked(id)
		}
		t.mu.Unlock()
		return entry, ok
	}
	defer t.mu.RUnlock()
	id, ok := t.lookupLocked(p)
	if !ok {
		return TableEntry{}, false
	}
	return t.entryLocked(id), true
}

// lookupLocked returns the index of the nearest entry within matchRadius,
// via the spatial index when present and a flat scan otherwise.
func (t *ObfuscationTable) lookupLocked(p geo.Point) (int, bool) {
	best := -1
	bestD2 := t.matchRadius * t.matchRadius
	if t.index != nil {
		t.index.ForEachWithin(p, t.matchRadius, func(id int, top geo.Point) {
			if d2 := top.Dist2(p); d2 <= bestD2 {
				bestD2 = d2
				best = id
			}
		})
	} else {
		for id := range t.tops {
			if d2 := t.tops[id].Dist2(p); d2 <= bestD2 {
				bestD2 = d2
				best = id
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// ensureIndexLocked builds the spatial index over the recorded tops if
// the table is large enough to want one. The caller holds the write
// lock.
func (t *ObfuscationTable) ensureIndexLocked() {
	if t.index != nil || len(t.tops) < tableIndexThreshold {
		return
	}
	index, err := spatial.NewGrid(t.matchRadius)
	if err != nil {
		return // validated radius; unreachable, but a nil index only costs linear scans
	}
	for id, top := range t.tops {
		index.Insert(id, top)
	}
	t.index = index
}

// Insert records candidates for a top location unless an entry for that
// location already exists; it returns the authoritative entry and whether
// a new entry was created. This "check-then-record-permanently" semantic
// is Algorithm 3's contract in the system (Section V-C).
func (t *ObfuscationTable) Insert(top geo.Point, candidates []geo.Point, at time.Time) (TableEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureIndexLocked()
	if id, ok := t.lookupLocked(top); ok {
		return t.entryLocked(id), false
	}
	id := t.appendLocked(top, timeToNanos(at), candidates)
	return t.entryLocked(id), true
}

// lacking filters entries in place down to the ones Insert, called on
// each in turn, would record: those whose top no recorded entry and no
// earlier kept entry matches within the match radius. It only reads the
// table; the caller keeps other writers out until appendNew has
// recorded the result.
func (t *ObfuscationTable) lacking(entries []TableEntry) []TableEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r2 := t.matchRadius * t.matchRadius
	kept := entries[:0]
	for _, en := range entries {
		if _, ok := t.lookupLocked(en.Top); ok {
			continue
		}
		if slices.ContainsFunc(kept, func(k TableEntry) bool { return k.Top.Dist2(en.Top) <= r2 }) {
			continue
		}
		kept = append(kept, en)
	}
	return kept
}

// appendNew records entries that lacking kept, in order, and returns
// the number of candidates they hold. Each of the four slabs grows at
// most once, to exactly the size the call needs, which is the size
// loadPacked gives a restored table: growing by amortized doubling per
// entry would leave slots that no later insert fills.
func (t *ObfuscationTable) appendNew(entries []TableEntry) int {
	if len(entries) == 0 {
		return 0
	}
	var cands int
	for _, en := range entries {
		cands += len(en.Candidates)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tops = growExact(t.tops, len(entries))
	t.createdNs = growExact(t.createdNs, len(entries))
	t.offs = growExact(t.offs, len(entries))
	t.arena = growExact(t.arena, cands)
	for _, en := range entries {
		t.appendLocked(en.Top, timeToNanos(en.CreatedAt), en.Candidates)
	}
	return cands
}

// growExact returns s with room for n more elements, reallocated to
// exactly that capacity when it lacks the room.
func growExact[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make(S, 0, len(s)+n), s...)
}

// appendLocked appends one entry to the packed layout (no duplicate
// check) and returns its index. The caller holds the write lock.
func (t *ObfuscationTable) appendLocked(top geo.Point, createdNs int64, candidates []geo.Point) int {
	id := len(t.tops)
	t.tops = append(t.tops, top)
	t.createdNs = append(t.createdNs, createdNs)
	t.offs = append(t.offs, uint32(len(t.arena)))
	t.arena = append(t.arena, candidates...)
	if t.index != nil {
		t.index.Insert(id, top)
	}
	if t.fpKept.Load() {
		t.fp.Store(t.foldEntryLocked(t.fp.Load(), id))
	}
	return id
}

// State returns the table's length and fingerprint-chain digest under
// the read lock, without materializing entries — the cheap content
// proof replication uses to decide how much of the table a replica
// already holds. The first call folds every entry and keeps the result;
// later calls read it.
func (t *ObfuscationTable) State() (int, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.fpKept.Load() {
		return len(t.tops), t.fp.Load()
	}
	fp := FingerprintSeed
	for i := range t.tops {
		fp = t.foldEntryLocked(fp, i)
	}
	// Concurrent first calls all store the same value.
	t.fp.Store(fp)
	t.fpKept.Store(true)
	return len(t.tops), fp
}

// foldEntryLocked folds entry i onto fp straight from the packed
// layout, bit-equal to ExtendFingerprint over the materialized entry.
// The caller holds t.mu (either side).
func (t *ObfuscationTable) foldEntryLocked(fp uint64, i int) uint64 {
	fp = fnvWord(fp, math.Float64bits(t.tops[i].X))
	fp = fnvWord(fp, math.Float64bits(t.tops[i].Y))
	fp = fnvWord(fp, uint64(fingerprintNanos(t.createdNs[i])))
	cands := t.candsLocked(i)
	fp = fnvWord(fp, uint64(len(cands)))
	for _, c := range cands {
		fp = fnvWord(fp, math.Float64bits(c.X))
		fp = fnvWord(fp, math.Float64bits(c.Y))
	}
	return fp
}

// Entries returns all rows in insertion order. Candidate slices alias
// the table's arena (read-only by contract), so the cost is one slice
// of entry headers, not a deep copy.
func (t *ObfuscationTable) Entries() []TableEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TableEntry, len(t.tops))
	for i := range t.tops {
		out[i] = t.entryLocked(i)
	}
	return out
}
