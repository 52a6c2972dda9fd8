package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binfmt"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/randx"
	"repro/internal/tracing"
)

// Engine errors.
var (
	// ErrUnknownUser reports an operation on a user the engine has never
	// seen a report from.
	ErrUnknownUser = errors.New("core: unknown user")
	// ErrNoProfile reports that a user has no computed top-location
	// profile yet (no window has closed).
	ErrNoProfile = errors.New("core: no location profile computed yet")
	// ErrBudgetExhausted reports that a user's cumulative nomadic privacy
	// budget is spent; the edge refuses further fresh-noise exposures.
	ErrBudgetExhausted = errors.New("core: nomadic privacy budget exhausted")
)

// Config parameterises the engine.
type Config struct {
	// Mechanism protects top locations; the paper uses the n-fold
	// Gaussian mechanism. Required.
	Mechanism geoind.Mechanism
	// NomadicMechanism protects rarely-visited locations with per-report
	// noise; the paper motivates one-time geo-IND (planar Laplace) for
	// these. Required.
	NomadicMechanism geoind.Mechanism
	// ProfileWindow is the recompute period of the location management
	// module; ≤ 0 selects the paper's three months.
	ProfileWindow time.Duration
	// NomadicBudget, when non-nil, bounds each user's cumulative privacy
	// loss from nomadic (fresh-noise) exposures — the edge's
	// risk-assessment function from the paper's system description. Each
	// nomadic report is accounted as one (NomadicReportEpsilon,
	// NomadicReportDelta) release; once the best composition bound
	// exceeds the budget, nomadic Requests fail with ErrBudgetExhausted.
	// Top-location requests are unaffected: they are post-processing of
	// the one permanent release.
	NomadicBudget *geoind.Loss
	// NomadicReportEpsilon is the per-report ε charged against the
	// budget; ≤ 0 selects 1 (one unit of geo-IND loss at the protection
	// radius).
	NomadicReportEpsilon float64
	// NomadicReportDelta is the per-report δ charged against the budget.
	NomadicReportDelta float64
	// Shards is the number of lock-striped user-map shards; ≤ 0 selects
	// DefaultShards and any other value rounds up to the next power of
	// two (at most MaxShards). Sharding is purely a concurrency knob:
	// per-user randomness is derived from the user-ID hash, so engine
	// state is byte-identical at any shard count.
	Shards int
	// Seed drives all engine randomness deterministically.
	Seed uint64
	// SpillDir is the directory the cold tier spills into, one file per
	// shard; required when MaxResidentUsers is set and unused otherwise.
	// Spilled users are faulted back in transparently on their next
	// touch. The spill tier is process-local scratch (crash recovery
	// comes from the WAL, never from spill files); the directory must
	// not be shared between live engines.
	SpillDir string
	// MaxResidentUsers, when positive, turns the cold tier on: it bounds
	// how many users' state stays resident in memory, and users beyond
	// the bound, picked by a CLOCK sweep that spares recently touched
	// ones, are evicted to SpillDir. The bound is enforced per shard
	// (cap/Shards each, minimum one resident per shard), so the
	// effective engine-wide bound is max(MaxResidentUsers, Shards). 0
	// means unbounded residency and no cold tier. Eviction never changes
	// logical state: TableFingerprint and Snapshot bytes are
	// byte-identical across any evict/fault-in schedule.
	MaxResidentUsers int
}

// The paper's constants for the location management module and the
// relevance filter.
const (
	// EtaFraction is the η of the frequent location set as a fraction of
	// a window's check-ins. Check-ins cluster into locations at
	// profile.DefaultConnectivityThreshold, the paper's 50 m.
	EtaFraction = 0.9
	// TargetRadius is the advertising radius R, in metres, that defines
	// the AOI.
	TargetRadius = 5000.0
)

// DefaultShards is the default user-map shard count. 64 stripes keep
// lock contention negligible up to many dozens of serving goroutines
// while costing only a few kilobytes of empty maps.
const DefaultShards = 64

// withDefaults fills zero fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.ProfileWindow <= 0 {
		c.ProfileWindow = 90 * 24 * time.Hour
	}
	if c.NomadicReportEpsilon <= 0 {
		c.NomadicReportEpsilon = 1
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	c.Shards = nextPow2(c.Shards)
	return c
}

// MaxShards bounds Config.Shards. Shards exist to stripe locks across
// serving goroutines; 2^16 stripes are already far past any contention
// benefit, and the bound keeps nextPow2 well-defined (doubling toward an
// absurd n would overflow int before reaching it).
const MaxShards = 1 << 16

// nextPow2 rounds n up to the next power of two, clamped to [1, MaxShards].
func nextPow2(n int) int {
	p := 1
	for p < n && p < MaxShards {
		p <<= 1
	}
	return p
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Mechanism == nil {
		return fmt.Errorf("core: config requires a Mechanism")
	}
	if c.NomadicMechanism == nil {
		return fmt.Errorf("core: config requires a NomadicMechanism")
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("core: shard count %d exceeds MaxShards (%d)", c.Shards, MaxShards)
	}
	if c.MaxResidentUsers > 0 && c.SpillDir == "" {
		return fmt.Errorf("core: MaxResidentUsers requires a SpillDir to evict into")
	}
	if c.MaxResidentUsers < 0 {
		return fmt.Errorf("core: MaxResidentUsers %d must not be negative", c.MaxResidentUsers)
	}
	return nil
}

// userState is the engine's per-user state.
type userState struct {
	mu  sync.Mutex
	rnd *randx.Rand
	// window is the collection window in its user-frame encoding: for
	// each pending check-in, its point then its time, as
	// binfmt.AppendPoint and binfmt.AppendTime write them. nPending
	// counts them. Bytes hold no pointer for the collector to scan.
	window      []byte
	nPending    int
	windowStart time.Time
	tops        profile.Profile
	table       *ObfuscationTable
	hasProfile  bool
	// gone marks a state that was evicted to the spill tier after this
	// pointer escaped the shard map: a holder that acquires mu and finds
	// gone set must drop the orphan and re-resolve through the shard
	// (which faults the user back in). Guarded by mu.
	gone bool
	// ref is the CLOCK reference bit a touch sets for the quota sweep
	// (see evictOneLocked). Only maintained when the cold tier is on.
	ref atomic.Bool
	// slot is the user's index in its shard's CLOCK ring while resident.
	// Guarded by the shard's mu.
	slot int
}

// residentSlot is one entry of a shard's CLOCK ring.
type residentSlot struct {
	id string
	u  *userState
}

// spillMeta is the one record of a spilled user: where its frame lies
// in the shard's spill file, and enough to decide, without reading the
// frame, whether a population-wide pass (RebuildAll) can skip the user.
type spillMeta struct {
	off, n int64 // the frame's offset and whole length, header included
	// pending is the user's pending check-in count at eviction time; a
	// rebuild pass over a user with no pending check-ins is a no-op, so
	// spilled users with pending == 0 are rebuilt without fault-in.
	pending int
}

// engineShard is one lock stripe of the engine's user map. Distinct
// users hash to distinct shards (up to collisions), so serving-path
// lookups on different users never contend on a shared mutex. Each
// shard owns its slice of the cold tier: the spilled map, which locates
// every spilled user's frame, and the spill file holding the frames.
type engineShard struct {
	mu      sync.RWMutex
	idx     int // position in Engine.shards; names the shard's spill file
	users   map[string]*userState
	spilled map[string]spillMeta // nil until the first eviction
	spill   *spillFile           // opened lazily on first eviction
	// ring lists the resident users in CLOCK order and hand is the next
	// slot the eviction sweep inspects; maintained only with the cold
	// tier on.
	ring []residentSlot
	hand int
	// faultBuf is the buffer a fault-in reads its spill frame into,
	// reused under mu's write side (see faultInLocked).
	faultBuf []byte
}

// Engine is the Edge-PrivLocAd core: it manages per-user location
// profiles, the permanent obfuscation table, and output selection. It is
// safe for concurrent use; distinct users proceed in parallel. The user
// map is split into Config.Shards lock stripes keyed by the FNV-64a user
// hash — the same hash that derives each user's RNG stream — so sharding
// changes contention, never state.
type Engine struct {
	cfg        Config
	accountant *geoind.Accountant // nil when no nomadic budget is set

	// met holds the optional telemetry handles (see Instrument); nil
	// until instrumented, so the uninstrumented hot path pays one atomic
	// load. The nUsers/nTops/nCandidates aggregates are always
	// maintained: they make Stats (and the edge's /v1/stats) O(1)
	// instead of a walk over every user's table.
	met         atomic.Pointer[engineMetrics]
	nUsers      atomic.Int64
	nTops       atomic.Int64
	nCandidates atomic.Int64

	// Memory-tier accounting (see spill.go). nResident counts users
	// whose state is in the shard maps (nUsers counts resident +
	// spilled); the counters feed core_resident_users /
	// core_evictions_total / core_faultins_total.
	nResident  atomic.Int64
	nEvictions atomic.Uint64
	nFaultIns  atomic.Uint64
	nSpillErrs atomic.Uint64

	// residentQuota is the per-shard resident bound derived from
	// Config.MaxResidentUsers (0 = unbounded, and no cold tier).
	residentQuota int

	// dur is the optional durability sink (see SetDurability); nil
	// keeps every logged path at one extra atomic load. ckptMu
	// serialises Checkpoint against loggable operations: update holds
	// the read side from before the state apply until after its log
	// append, so a checkpoint never splits an apply from its record.
	// Lock order: ckptMu, then shard.mu, then userState.mu.
	dur    atomic.Pointer[durHolder]
	ckptMu sync.RWMutex

	shards    []engineShard
	shardMask uint64
}

// NewEngine validates cfg and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg.withDefaults()}
	e.shards = make([]engineShard, e.cfg.Shards)
	e.shardMask = uint64(e.cfg.Shards - 1)
	for i := range e.shards {
		e.shards[i].idx = i
		e.shards[i].users = make(map[string]*userState)
	}
	if e.cfg.MaxResidentUsers > 0 {
		if err := os.MkdirAll(e.cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: creating spill dir: %w", err)
		}
		// Ceiling division so Shards quotas always cover the cap; at
		// least one resident per shard keeps a touched user resident for
		// the duration of its own operation.
		e.residentQuota = max(1, (e.cfg.MaxResidentUsers+e.cfg.Shards-1)/e.cfg.Shards)
	}
	if e.cfg.NomadicBudget != nil {
		acct, err := geoind.NewAccountant(e.cfg.NomadicReportEpsilon, e.cfg.NomadicReportDelta)
		if err != nil {
			return nil, fmt.Errorf("core: nomadic accountant: %w", err)
		}
		e.accountant = acct
	}
	return e, nil
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// hashUser is FNV-64a over the user ID, allocation-free. It must stay
// bit-equal to fnv.New64a().Write([]byte(id)).Sum64(): the value both
// picks the shard AND seeds the user's RNG stream, so changing it would
// change every obfuscation output.
func hashUser(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// shardFor returns the lock stripe owning userID and the user's hash.
func (e *Engine) shardFor(userID string) (*engineShard, uint64) {
	h := hashUser(userID)
	return &e.shards[h&e.shardMask], h
}

// tiered reports whether the cold tier is on.
func (e *Engine) tiered() bool { return e.residentQuota > 0 }

// touch sets the user's CLOCK reference bit, writing it only when it is
// clear so hot users do not keep dirtying its cache line. Only paid when
// the cold tier is on.
func (e *Engine) touch(u *userState) {
	if e.tiered() && !u.ref.Load() {
		u.ref.Store(true)
	}
}

// resolveUser returns the state for userID, faulting a spilled user
// back into residency. An unknown user is created when create is set
// and fails with ErrUnknownUser otherwise. Read-only paths that must
// not promote cold users use viewUser (spill.go) instead. The returned
// pointer may be concurrently evicted; callers go through lockUser,
// which re-resolves on eviction.
func (e *Engine) resolveUser(userID string, create bool) (*userState, error) {
	s, h := e.shardFor(userID)
	s.mu.RLock()
	u, ok := s.users[userID]
	s.mu.RUnlock()
	if ok {
		e.touch(u)
		return u, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if u, ok = s.users[userID]; ok {
		e.touch(u)
		return u, nil
	}
	if m, ok := s.spilled[userID]; ok {
		var err error
		if u, err = e.faultInLocked(s, userID, m); err != nil {
			return nil, err
		}
	} else if create {
		table, err := NewObfuscationTable(profile.DefaultConnectivityThreshold)
		if err != nil {
			return nil, fmt.Errorf("core: user %q table: %w", userID, err)
		}
		u = &userState{
			rnd:   randx.New(e.cfg.Seed, h),
			table: table,
		}
		e.addResidentLocked(s, userID, u)
		e.nUsers.Add(1)
		e.nResident.Add(1)
	} else {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
	}
	e.touch(u)
	e.enforceQuotaLocked(s, u)
	return u, nil
}

// lockUser resolves userID and returns its state with u.mu held; create
// is resolveUser's. The loop absorbs the eviction race: a state evicted
// between resolution and lock acquisition is marked gone, and the retry
// faults the user back in.
func (e *Engine) lockUser(userID string, create bool) (*userState, error) {
	for {
		u, err := e.resolveUser(userID, create)
		if err != nil {
			return nil, err
		}
		u.mu.Lock()
		if !u.gone {
			return u, nil
		}
		u.mu.Unlock()
	}
}

// update is the one write path of every logged operation. It takes the
// checkpoint read hold when a sink is attached, so no checkpoint lands
// between the state apply and its record, then locks the user (create
// as in resolveUser) and runs apply as the apply span. Still under the
// user's lock, so the log's per-user order is apply order, it appends
// record as the WAL span, also when apply failed: a failed apply can
// leave table entries inserted and the PRNG advanced, and replay
// reproduces exactly that. apply's error wins over the log's; either
// way the change is applied, unacknowledged — crash-equivalent, as a
// client must assume after any error. A lock failure runs neither.
func (e *Engine) update(ctx context.Context, userID string, create bool, apply func(*userState) error, record func([]byte) []byte) error {
	h := e.dur.Load()
	if h != nil {
		e.ckptMu.RLock()
		defer e.ckptMu.RUnlock()
	}
	_, sp := tracing.StartSpan(ctx, tracing.StageApply)
	u, err := e.lockUser(userID, create)
	if err != nil {
		sp.End()
		return err
	}
	defer u.mu.Unlock()
	err = apply(u)
	sp.End()
	if h != nil {
		if lerr := h.emit(ctx, record); err == nil {
			err = lerr
		}
	}
	return err
}

// Report ingests one check-in for userID (the location management
// module's passive collection). When the report closes the user's
// profile window, the profile is recomputed and new top locations are
// obfuscated into the permanent table.
func (e *Engine) Report(userID string, pos geo.Point, at time.Time) error {
	return e.ReportCtx(context.Background(), userID, pos, at)
}

// ReportCtx is Report with trace context: when ctx carries a trace, the
// shard-locked state apply and the WAL append are timed as separate
// spans. An untraced ctx costs one context lookup.
func (e *Engine) ReportCtx(ctx context.Context, userID string, pos geo.Point, at time.Time) error {
	if m := e.met.Load(); m != nil {
		m.reports.Inc()
	}
	return e.update(ctx, userID, true, func(u *userState) error {
		u.window = slices.Grow(u.window, checkInLen(at))
		return e.ingestLocked(u, userID, pos, at)
	}, func(b []byte) []byte { return encodeReport(b, userID, pos, at) })
}

// ingestLocked appends one check-in to the user's window, which the
// caller has grown for it, and closes the window when the check-in lies
// a ProfileWindow or more past its start. A rollover needs no record of
// its own: replaying the check-in reproduces it. The caller holds u.mu.
func (e *Engine) ingestLocked(u *userState, userID string, pos geo.Point, at time.Time) error {
	if u.windowStart.IsZero() {
		u.windowStart = at
	}
	u.window = binfmt.AppendTime(binfmt.AppendPoint(u.window, pos), at)
	u.nPending++
	if at.Sub(u.windowStart) < e.cfg.ProfileWindow {
		return nil
	}
	if err := e.rebuildLocked(u, at, true); err != nil {
		return fmt.Errorf("core: rebuilding profile for %q: %w", userID, err)
	}
	return nil
}

// BatchReport is one check-in of a ReportBatch call.
type BatchReport struct {
	UserID string
	Pos    geo.Point
	At     time.Time
}

// BatchError reports the failure of one item of a batch; Index is the
// item's position in the input slice.
type BatchError struct {
	Index int
	Err   error
}

// ReportBatch ingests many check-ins in one call — the bulk analogue of
// Report for SDKs that piggyback several location fixes per session.
// Items are grouped by user, each user's state is locked once, and the
// per-user arrival order of the input is preserved, so the resulting
// engine state is byte-identical to the same items fed through Report
// one at a time. Failing items are reported individually (by input
// index) without aborting the rest of the batch.
func (e *Engine) ReportBatch(items []BatchReport) []BatchError {
	return e.ReportBatchCtx(context.Background(), items)
}

// ReportBatchCtx is ReportBatch with trace context: each per-user run
// records one apply span and one WAL span.
func (e *Engine) ReportBatchCtx(ctx context.Context, items []BatchReport) []BatchError {
	if len(items) == 0 {
		return nil
	}
	if m := e.met.Load(); m != nil {
		m.reports.Add(uint64(len(items)))
	}

	// Fast path: the dominant shape is one device flushing its own fix
	// buffer, i.e. every item belongs to the same user — no grouping
	// allocations needed.
	single := true
	for i := 1; i < len(items); i++ {
		if items[i].UserID != items[0].UserID {
			single = false
			break
		}
	}
	if single {
		return e.reportUserRun(ctx, items[0].UserID, items, nil, nil)
	}

	groups := make(map[string][]int, 8)
	order := make([]string, 0, 8)
	for i, it := range items {
		if _, ok := groups[it.UserID]; !ok {
			order = append(order, it.UserID)
		}
		groups[it.UserID] = append(groups[it.UserID], i)
	}
	var errs []BatchError
	for _, id := range order {
		errs = e.reportUserRun(ctx, id, items, groups[id], errs)
	}
	return errs
}

// reportUserRun ingests the items selected by idx (nil selects all) for
// one user under a single user-lock acquisition, each through
// ingestLocked as Report does. A rollover error fails only its item.
// One recBatch record covers the whole run: logging per-user runs
// (rather than whole batches) under the user lock keeps the log's
// per-user order identical to apply order even when batches touching
// the same user race on different goroutines.
func (e *Engine) reportUserRun(ctx context.Context, userID string, items []BatchReport, idx []int, errs []BatchError) []BatchError {
	n := len(idx)
	if idx == nil {
		n = len(items)
	}
	err := e.update(ctx, userID, true, func(u *userState) error {
		// Grow the window once for the whole run, by the run's encoded
		// length, with slices.Grow's geometric headroom: growing to the
		// exact need would re-copy the full history on every batch, and
		// growing record by record would regrow it within one. A
		// rollover may still empty the window mid-run, and keeps its
		// array for the appends that follow.
		size := 0
		for i := 0; i < n; i++ {
			size += checkInLen(items[runItem(idx, i)].At)
		}
		u.window = slices.Grow(u.window, size)
		for i := 0; i < n; i++ {
			j := runItem(idx, i)
			if err := e.ingestLocked(u, userID, items[j].Pos, items[j].At); err != nil {
				errs = append(errs, BatchError{Index: j, Err: err})
			}
		}
		return nil
	}, func(b []byte) []byte { return encodeBatchRun(b, userID, items, idx) })
	if err != nil {
		// A lock failure applied nothing, and a log failure left the
		// whole run applied but unacknowledged: either way every item
		// fails, so the client treats them like any other error.
		for i := 0; i < n; i++ {
			errs = append(errs, BatchError{Index: runItem(idx, i), Err: err})
		}
	}
	return errs
}

// runItem is the input index of a run's i-th item: idx[i], or i when
// idx is nil and the run is the whole batch.
func runItem(idx []int, i int) int {
	if idx == nil {
		return i
	}
	return idx[i]
}

// RebuildProfile forces an immediate profile recomputation for userID
// from the check-ins collected so far (the periodic task of Section V-B,
// exposed for tests, benchmarks, and administrative control).
func (e *Engine) RebuildProfile(userID string, now time.Time) error {
	return e.RebuildProfileCtx(context.Background(), userID, now)
}

// RebuildProfileCtx is RebuildProfile with trace context: the rebuild
// itself is the apply span, the log record the WAL span.
func (e *Engine) RebuildProfileCtx(ctx context.Context, userID string, now time.Time) error {
	return e.update(ctx, userID, false, func(u *userState) error {
		if err := e.rebuildLocked(u, now, false); err != nil {
			return fmt.Errorf("core: rebuilding profile for %q: %w", userID, err)
		}
		return nil
	}, func(b []byte) []byte { return encodeRebuild(b, userID, now) })
}

// RebuildAll recomputes every known user's profile (the periodic task of
// Section V-B run over the whole population, and the batch path the
// Table II scaling experiment drives), each user exactly as
// RebuildProfile does. Users rebuild concurrently under at most
// parallelism workers (≤ 0 selects runtime.NumCPU()); each user's
// randomness comes from its own ID-hash-derived stream, so the resulting
// tables are identical at any parallelism level. Every user is attempted
// even after failures; the returned error is the one for the first
// failing user in sorted ID order.
//
// Spilled users with no pending check-ins are skipped without fault-in:
// their rebuild is a no-op by construction (see rebuildLocked), so the
// cold tail costs a map lookup, not disk traffic.
//
// Under a resident cap the shards are brought back to quota once the
// workers are done: a fault-in's quota sweep skips residents whose
// locks are held, and the workers hold user locks throughout, so a shard
// can be left over quota with no later touch to trim it.
func (e *Engine) RebuildAll(now time.Time, parallelism int) error {
	ids := e.rebuildTargets()
	err := par.ForEachErr(parallelism, len(ids), func(i int) error {
		return e.RebuildProfile(ids[i], now)
	})
	if e.tiered() {
		for i := range e.shards {
			s := &e.shards[i]
			s.mu.Lock()
			e.enforceQuotaLocked(s, nil)
			s.mu.Unlock()
		}
	}
	return err
}

// rebuildTargets lists (sorted) the users a RebuildAll pass must touch:
// every resident user, plus the spilled users whose eviction-time state
// still had pending check-ins.
func (e *Engine) rebuildTargets() []string {
	var ids []string
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for id := range s.users {
			ids = append(ids, id)
		}
		for id, meta := range s.spilled {
			if meta.pending > 0 {
				ids = append(ids, id)
			}
		}
		s.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// ptsPool recycles the per-rebuild point scratch. A rebuild (and
// PendingProfile) needs one []geo.Point the size of the user's pending
// window; at a million users × periodic rebuild rounds, allocating it
// fresh each time is pure garbage-collector load — profile.Build does
// not retain the slice, so it is safe to pool.
var ptsPool = sync.Pool{
	New: func() any {
		b := make([]geo.Point, 0, 64)
		return &b
	},
}

// rebuildLocked recomputes the η-frequent top set from pending check-ins
// and obfuscates any new top location into the permanent table. keep
// says whether the emptied window keeps its array (see emptyWindow):
// a report's rollover keeps it, a rebuild pass does not. The caller
// holds u.mu.
func (e *Engine) rebuildLocked(u *userState, now time.Time, keep bool) error {
	if u.nPending == 0 {
		u.emptyWindow(keep)
		return nil
	}
	m := e.met.Load()
	var start time.Time
	if m != nil {
		m.rebuilds.Inc()
		start = time.Now()
		defer func() { observeSince(m.rebuildSeconds, start) }()
	}
	bp := ptsPool.Get().(*[]geo.Point)
	pts := u.appendPositions((*bp)[:0])
	prof, err := profile.Build(pts, profile.DefaultConnectivityThreshold)
	*bp = pts[:0]
	ptsPool.Put(bp)
	if err != nil {
		return fmt.Errorf("building profile: %w", err)
	}
	tops := prof.EtaFractionSet(EtaFraction)
	if err := e.obfuscateLocked(u, tops, now); err != nil {
		return fmt.Errorf("obfuscating top location: %w", err)
	}

	u.tops = tops
	u.hasProfile = true
	u.emptyWindow(keep)
	u.windowStart = now
	return nil
}

// emptyWindow empties the user's collection window. keep holds on to
// its array, for a report's rollover: the rest of the report refills
// it at once. A rebuild pass or a merge releases it instead, since
// otherwise every user would hold their largest window's array for
// good. Capacity is never encoded, so either way the state is the
// same.
func (u *userState) emptyWindow(keep bool) {
	u.nPending = 0
	if keep {
		u.window = u.window[:0]
	} else {
		u.window = nil
	}
}

// checkInLen is the encoded length of a check-in at time at in the
// window.
func checkInLen(at time.Time) int { return pointSize + binfmt.TimeLen(at) }

// appendPositions appends the position of each pending check-in to
// dst, in arrival order, stepping over the times. Only ingestLocked and
// readWindow write the window, so its bytes need no checks. The caller
// holds u.mu.
func (u *userState) appendPositions(dst []geo.Point) []geo.Point {
	for w := u.window; len(w) > 0; w = binfmt.SkipTime(w[pointSize:]) {
		dst = append(dst, binfmt.ReadPoint(w))
	}
	return dst
}

// obfuscateLocked records a permanent entry for each of tops that the
// user's table lacks (Algorithm 3's check-then-record). Candidates are
// drawn in the order of tops, for exactly the tops that Insert, called
// on each in turn, would record, and the table then grows once for all
// of them. After a failed draw the entries drawn before it are still
// recorded, as replay reproduces. The caller holds u.mu.
func (e *Engine) obfuscateLocked(u *userState, tops profile.Profile, now time.Time) error {
	var buf [8]TableEntry // a profile's top set rarely holds more
	fresh := buf[:0]
	for _, lf := range tops {
		fresh = append(fresh, TableEntry{Top: lf.Loc, CreatedAt: now})
	}
	fresh = u.table.lacking(fresh)
	var err error
	for i := range fresh {
		if fresh[i].Candidates, err = e.cfg.Mechanism.Obfuscate(u.rnd, fresh[i].Top); err != nil {
			fresh = fresh[:i]
			break
		}
	}
	e.noteInserts(len(fresh), u.table.appendNew(fresh))
	return err
}

// Request answers an LBA trigger: given the user's current true location
// it returns the obfuscated location to expose to the ad network. Top
// locations are answered from the permanent table via posterior output
// selection (Algorithm 4); anywhere else is nomadic and gets fresh
// one-time noise. The boolean reports whether the answer came from the
// permanent table.
func (e *Engine) Request(userID string, truePos geo.Point) (geo.Point, bool, error) {
	return e.RequestCtx(context.Background(), userID, truePos)
}

// RequestCtx is Request with trace context: output selection under the
// user lock is the apply span, the log record the WAL span. The drawn
// output is returned together with a log error.
func (e *Engine) RequestCtx(ctx context.Context, userID string, truePos geo.Point) (geo.Point, bool, error) {
	// Request mutates no table state, but posterior selection and
	// nomadic noise DRAW from the user's PRNG stream. Skipping it in
	// the log would leave a recovered engine's stream behind the
	// original's, and the next rebuild would mint different candidates
	// — a second (r, ε, δ, n) release for the same top locations,
	// exactly the longitudinal leak the permanent table prevents. So
	// requests are logged too.
	var (
		out       geo.Point
		fromTable bool
	)
	err := e.update(ctx, userID, false, func(u *userState) error {
		var err error
		out, fromTable, err = e.requestLocked(u, userID, truePos)
		return err
	}, func(b []byte) []byte { return encodeRequest(b, userID, truePos) })
	return out, fromTable, err
}

// requestLocked is the serving path of Request; the caller holds u.mu.
func (e *Engine) requestLocked(u *userState, userID string, truePos geo.Point) (geo.Point, bool, error) {
	m := e.met.Load()
	if entry, ok := u.table.Lookup(truePos); ok {
		var start time.Time
		if m != nil {
			start = m.sampleStart()
		}
		sigma := e.posteriorSigma(entry.Candidates)
		selected, _, err := SelectPosterior(u.rnd, entry.Candidates, sigma)
		if err != nil {
			return geo.Point{}, false, fmt.Errorf("core: output selection for %q: %w", userID, err)
		}
		if m != nil {
			m.tableHits.Inc()
			observeSince(m.selectionSeconds, start)
		}
		return selected, true, nil
	}

	if e.accountant != nil {
		over, err := e.accountant.WouldExceed(userID, *e.cfg.NomadicBudget, _accountantSlack)
		if err != nil {
			return geo.Point{}, false, fmt.Errorf("core: budget check for %q: %w", userID, err)
		}
		if over {
			if m != nil {
				m.budgetDenied.Inc()
			}
			return geo.Point{}, false, fmt.Errorf("%w for %q", ErrBudgetExhausted, userID)
		}
		e.accountant.Record(userID)
	}

	out, err := e.cfg.NomadicMechanism.Obfuscate(u.rnd, truePos)
	if err != nil {
		return geo.Point{}, false, fmt.Errorf("core: nomadic obfuscation for %q: %w", userID, err)
	}
	if len(out) == 0 {
		return geo.Point{}, false, fmt.Errorf("core: nomadic mechanism returned no output for %q", userID)
	}
	if m != nil {
		m.nomadic.Inc()
	}
	return out[0], false, nil
}

// _accountantSlack is the δ' used when evaluating the advanced
// composition bound for budget checks.
const _accountantSlack = 1e-6

// NomadicLoss returns the user's cumulative nomadic privacy loss under
// the best available composition bound. It returns the zero Loss when no
// nomadic budget is configured.
func (e *Engine) NomadicLoss(userID string) (geoind.Loss, error) {
	if e.accountant == nil {
		return geoind.Loss{}, nil
	}
	loss, err := e.accountant.BestLoss(userID, _accountantSlack)
	if err != nil {
		return geoind.Loss{}, fmt.Errorf("core: nomadic loss for %q: %w", userID, err)
	}
	return loss, nil
}

// posteriorSigma resolves the σ of the output-selection posterior
// (Eq. 17): the mechanism's own Sigma scaled to the posterior deviation
// σ/√n (the sufficient statistic's deviation), else the empirical
// candidate spread.
func (e *Engine) posteriorSigma(candidates []geo.Point) float64 {
	if s, ok := e.cfg.Mechanism.(interface{ Sigma() float64 }); ok {
		n := e.cfg.Mechanism.Fold()
		if n < 1 {
			n = 1
		}
		return s.Sigma() / math.Sqrt(float64(n))
	}
	centroid, ok := geo.Centroid(candidates)
	if !ok || len(candidates) < 2 {
		return 1
	}
	var sum float64
	for _, c := range candidates {
		sum += c.Dist2(centroid)
	}
	sigma := math.Sqrt(sum / float64(2*len(candidates))) // per-axis spread
	if sigma <= 0 {
		return 1
	}
	return sigma
}

// PendingProfile clusters the user's check-ins collected since the last
// window rollover into a location profile WITHOUT closing the window.
// Multi-edge deployments use it to extract each edge's partial profile
// for the secure merge (Section V-B).
func (e *Engine) PendingProfile(userID string) (profile.Profile, error) {
	u, release, err := e.viewUser(userID)
	if err != nil {
		return nil, err
	}
	defer release()
	if u.nPending == 0 {
		return nil, nil
	}
	bp := ptsPool.Get().(*[]geo.Point)
	pts := u.appendPositions((*bp)[:0])
	prof, err := profile.Build(pts, profile.DefaultConnectivityThreshold)
	*bp = pts[:0]
	ptsPool.Put(bp)
	if err != nil {
		return nil, fmt.Errorf("core: pending profile for %q: %w", userID, err)
	}
	return prof, nil
}

// InstallTops installs an externally computed η-frequent top set for the
// user (e.g. the result of a secure multi-edge merge): new top locations
// are obfuscated into the permanent table, the profile becomes current,
// and the collection window restarts. Existing table entries are never
// re-obfuscated.
func (e *Engine) InstallTops(userID string, tops profile.Profile, now time.Time) error {
	return e.installTops(userID, tops, now, true)
}

// SyncTops is InstallTops without consuming the user's collection
// window: the top set and table update exactly as InstallTops, but
// pending check-ins and the window start are preserved. Multi-edge
// deployments use it to replay merge rounds onto a replica that was down
// during the round — the replica's own pending check-ins were NOT part
// of that merge and must survive to contribute to the next one.
func (e *Engine) SyncTops(userID string, tops profile.Profile, now time.Time) error {
	return e.installTops(userID, tops, now, false)
}

func (e *Engine) installTops(userID string, tops profile.Profile, now time.Time, consumeWindow bool) error {
	tag := recSyncTops
	if consumeWindow {
		tag = recInstallTops
	}
	return e.update(context.Background(), userID, true, func(u *userState) error {
		if err := e.obfuscateLocked(u, tops, now); err != nil {
			return fmt.Errorf("core: obfuscating installed top for %q: %w", userID, err)
		}
		u.tops = make(profile.Profile, len(tops))
		copy(u.tops, tops)
		u.hasProfile = true
		if consumeWindow {
			u.emptyWindow(false)
			u.windowStart = now
		}
		return nil
	}, func(b []byte) []byte { return encodeTops(b, tag, userID, tops, now) })
}

// ImportTable replicates a packed table suffix (packed.go): entries
// another edge generated for the user. Multi-edge deployments use it so
// every edge answers a given top location from the SAME permanent
// candidate set — if each edge obfuscated independently, the union of
// their outputs would leak beyond the (r, ε, δ, n) guarantee. Entries
// for already-known top locations are ignored (first writer wins,
// matching table semantics). A suffix that does not decode wraps
// ErrCorruptRecord and imports nothing. The durability record stores
// the suffix verbatim.
func (e *Engine) ImportTable(userID string, suffix []byte) error {
	var in ObfuscationTable
	r := binfmt.NewReader(suffix)
	in.loadPacked(&r)
	if err := finish(&r); err != nil {
		return fmt.Errorf("core: importing table for %q: %w", userID, err)
	}
	return e.update(context.Background(), userID, true, func(u *userState) error {
		fresh := u.table.lacking(in.Entries())
		e.noteInserts(len(fresh), u.table.appendNew(fresh))
		return nil
	}, func(b []byte) []byte { return encodeImport(b, userID, suffix) })
}

// TopLocations returns the user's current η-frequent top set (copy),
// ordered by descending frequency.
func (e *Engine) TopLocations(userID string) (profile.Profile, error) {
	u, release, err := e.viewUser(userID)
	if err != nil {
		return nil, err
	}
	defer release()
	if !u.hasProfile {
		return nil, fmt.Errorf("%w for %q", ErrNoProfile, userID)
	}
	out := make(profile.Profile, len(u.tops))
	copy(out, u.tops)
	return out, nil
}

// Table returns the user's obfuscation table entries (copy).
func (e *Engine) Table(userID string) ([]TableEntry, error) {
	u, release, err := e.viewUser(userID)
	if err != nil {
		return nil, err
	}
	defer release()
	return u.table.Entries(), nil
}

// TableFingerprint hashes the user's obfuscation table — entry order,
// top coordinates, every candidate's exact float bits, and creation
// times — into one 64-bit digest (the FingerprintTable chain). Two
// engines answer identically for the user iff their fingerprints match,
// which is how multi-edge deployments verify that replication (or a
// journal catch-up after downtime) left a replica byte-identical to the
// obfuscator. An unknown user hashes to the empty-table fingerprint: a
// replica that never saw the user agrees with an obfuscator holding no
// entries for them.
func (e *Engine) TableFingerprint(userID string) (uint64, error) {
	_, fp, err := e.TableState(userID)
	return fp, err
}

// TableState returns the user's table length and fingerprint without
// copying entries. An unknown user reads as the empty table (length 0,
// FingerprintSeed), matching TableFingerprint's convention.
func (e *Engine) TableState(userID string) (int, uint64, error) {
	u, release, err := e.viewUser(userID)
	if err != nil {
		if errors.Is(err, ErrUnknownUser) {
			return 0, FingerprintSeed, nil
		}
		return 0, 0, err
	}
	defer release()
	n, fp := u.table.State()
	return n, fp, nil
}

// TableLen returns the number of entries in the user's obfuscation
// table without copying it. An unknown user has zero entries, matching
// TableFingerprint's empty-table convention.
func (e *Engine) TableLen(userID string) (int, error) {
	u, release, err := e.viewUser(userID)
	if err != nil {
		if errors.Is(err, ErrUnknownUser) {
			return 0, nil
		}
		return 0, err
	}
	defer release()
	return u.table.Len(), nil
}

// Users returns the known user IDs — resident and spilled — in sorted
// order.
func (e *Engine) Users() []string {
	ids := make([]string, 0, e.nUsers.Load())
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for id := range s.users {
			ids = append(ids, id)
		}
		for id := range s.spilled {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// FilterAds implements the edge's relevance filter (Section V-A): given
// ad locations returned by the LBA provider for an obfuscated request, it
// returns the indexes of ads whose location falls inside the user's true
// AOI (within TargetRadius of truePos), so the device only receives
// relevant ads.
func (e *Engine) FilterAds(truePos geo.Point, adLocations []geo.Point) []int {
	return e.FilterAdsAppend(nil, truePos, adLocations)
}

// FilterAdsAppend is FilterAds appending into dst, letting hot serving
// paths reuse one index buffer across requests instead of allocating a
// fresh slice per call.
func (e *Engine) FilterAdsAppend(dst []int, truePos geo.Point, adLocations []geo.Point) []int {
	const r2 = TargetRadius * TargetRadius
	for i, ad := range adLocations {
		if ad.Dist2(truePos) <= r2 {
			dst = append(dst, i)
		}
	}
	return dst
}
