// Package edgecluster implements a multi-edge Edge-PrivLocAd deployment:
// several edge devices with distinct coverage areas serve a roaming user
// population. Each edge records only the check-ins it observes (a local
// part of the user's location profile, Section V-B of the paper); a
// periodic merge combines the partial profiles through the secure
// aggregation protocol of internal/secagg, computes the η-frequent top
// set on the aggregate, obfuscates each new top exactly once, and
// replicates the permanent candidate sets to every edge.
//
// The replication step carries the deployment-critical invariant: if two
// edges obfuscated the same top location independently, the union of
// their outputs would exceed the (r, ε, δ, n) guarantee. The cluster
// therefore designates one edge as the obfuscator for a merge round and
// copies its table rows to the rest.
//
// Edge devices are the class of hardware that fails, restarts, and drops
// requests, so the cluster is fault tolerant by construction:
//
//   - Every node carries a health state (MarkDown/MarkUp, or the
//     ping-based Detector driving those transitions automatically).
//     Routing skips down and unreachable nodes and fails over to the
//     next-nearest covering live edge.
//   - MergeProfiles degrades gracefully: it merges over reachable edges
//     only, picks the lowest-indexed LIVE node as the round's obfuscator,
//     and never aborts the round because one replica is unreachable.
//   - Replication is a versioned, idempotent journal shipping
//     content-addressed deltas: obfuscation tables are append-only, so a
//     round records the obfuscator's table plus its fingerprint chain
//     (core.FingerprintTable), and each replica receives only the suffix
//     beyond the prefix it proves it holds — O(changed entries) bytes,
//     not O(table). A replica whose content proof fails (arbitrary
//     divergence, e.g. a corrupt store) falls back to the full snapshot,
//     which the idempotent import still converges. A node that was down
//     (or crashed mid-replication) catches up to a byte-identical table
//     on recovery; a restarted node recovers its position from its own
//     durable state and replays only genuinely missed rounds.
package edgecluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/randx"
	"repro/internal/secagg"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// Cluster errors.
var (
	// ErrNoCoverage reports a report or request outside every edge's
	// coverage radius.
	ErrNoCoverage = errors.New("edgecluster: no edge covers this location")
	// ErrNoLiveEdge reports that every edge covering the location (or, for
	// merges, every edge in the cluster) is marked down.
	ErrNoLiveEdge = errors.New("edgecluster: no live edge available")
)

// Node is one edge device: its coverage centre, its engine, and its
// health/replication state.
type Node struct {
	ID       string
	Coverage geo.Circle
	Engine   *core.Engine

	// down is the node's health state — the cluster's *belief*, driven
	// by MarkDown/MarkUp or the failure detector; a down node receives
	// no traffic and no replication until revived.
	down atomic.Bool
	// unreachable simulates loss of the node's endpoint (process death,
	// network partition) — the seam chaos runs kill. Unlike down, it is
	// ground truth: an unreachable node answers no probes, takes no
	// traffic, and fails replication applies whether or not the cluster
	// has noticed yet.
	unreachable atomic.Bool
	// lag maps userID → the journal version this node is known to be
	// missing, and carries an entry ONLY while the node is behind the
	// journal head for that user: a successful apply deletes the entry.
	// A healthy cluster therefore keeps every lag map empty regardless
	// of user count (the old always-growing applied map leaked an entry
	// per user forever). Guarded by the cluster mutex.
	lag map[string]uint64
	// failApply, when non-nil (failure injection for tests and chaos
	// runs), is consulted before each replication apply on this node; an
	// error simulates a crash mid-replication: the lag entry survives,
	// so the node stays cleanly retryable.
	failApply func(userID string) error
}

// Down reports whether the node is currently marked unhealthy.
func (n *Node) Down() bool { return n.down.Load() }

// Reachable reports whether the node's endpoint is answering — the
// ground truth the failure detector discovers, as opposed to Down, the
// cluster's current belief.
func (n *Node) Reachable() bool { return !n.unreachable.Load() }

// LagLen returns the number of users this node is known to be behind
// on. Guarded by the cluster mutex via Cluster.NodeLag.
func (n *Node) lagLen() int { return len(n.lag) }

// SetFailApply installs (or clears, with nil) the replication failure
// injection hook — the test/chaos seam for "node crashed mid-round".
func (n *Node) SetFailApply(fn func(userID string) error) { n.failApply = fn }

// Config parameterises a cluster.
type Config struct {
	// Engine is the per-edge engine configuration; every edge runs the
	// same mechanisms. The per-edge Seed is derived from Config.Seed.
	Engine core.Config
	// Coverage lists each edge's service disk. At least one.
	Coverage []geo.Circle
	// MergeRegion bounds the secure-aggregation grid; it should contain
	// all coverage disks.
	MergeRegion geo.BBox
	// MergeCell is the aggregation grid resolution; ≤ 0 selects the
	// engine's connectivity threshold (50 m by default).
	MergeCell float64
	// EtaFraction selects the merged η-frequent set; ≤ 0 selects 0.9.
	EtaFraction float64
	// Seed drives cluster randomness (per-edge seeds, merge sessions).
	Seed uint64
}

// Cluster is a set of cooperating edge devices. Report and Request fan
// out to per-node engines (which carry their own per-user locks) and are
// safe for concurrent use; merge rounds, journal access, and health
// transitions serialise on the cluster mutex.
type Cluster struct {
	cfg   Config
	nodes []*Node

	// mu guards the journal, every node's lag map, merge rounds, and the
	// encode scratch buffer.
	mu      sync.Mutex
	journal map[string]*mergeRound
	version uint64
	// encBuf is the pooled wire-encode buffer replication frames are
	// sized with; reused across applies under mu.
	encBuf []byte
	// repl accumulates replication traffic accounting across rounds.
	repl ReplStats

	met atomic.Pointer[clusterMetrics]
}

// mergeRound is one journal record: the latest merged state for a user.
// A round records the obfuscator's FULL authoritative table next to its
// fingerprint chain, but *ships* only deltas: the table is append-only,
// so any replica's table is a prefix of entries, and prefix[k] — the
// core.FingerprintTable digest of entries[:k] — lets a replica prove
// which prefix it holds and receive entries[k:] alone. Applying the
// latest round still brings any replica — fresh, stale, or partially
// replicated — to the byte-identical current state; intermediate rounds
// need never be replayed.
type mergeRound struct {
	version uint64
	tops    profile.Profile
	entries []core.TableEntry
	// prefix has len(entries)+1 values: prefix[k] is the fingerprint
	// chain of entries[:k], so prefix[0] == core.FingerprintSeed and
	// prefix[len(entries)] is the round's full-table digest.
	prefix []uint64
	// snapshotBytes is the wire frame size a full-snapshot scheme would
	// ship per replica for this round, computed once at journal time;
	// replication metrics report it next to the actual delta bytes.
	snapshotBytes int
	at            time.Time
}

// ReplStats is the cluster's cumulative replication-traffic accounting:
// what delta replication actually shipped versus what the old
// full-snapshot scheme would have shipped for the same applies.
type ReplStats struct {
	// DeltaBytes is the wire bytes actually shipped (delta frames).
	DeltaBytes int
	// SnapshotBytes is the bytes a full-snapshot round would have
	// shipped for the same applies.
	SnapshotBytes int
	// Entries is the table entries actually shipped.
	Entries int
	// Fallbacks counts applies whose content proof failed, forcing a
	// full-snapshot delta (BaseLen 0).
	Fallbacks int
}

// ReplStats returns the cluster's cumulative replication accounting.
func (c *Cluster) ReplStats() ReplStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.repl
}

// Stats returns the cluster-wide counts GET /v1/stats reports. Users
// are the distinct IDs across all edges, so a user held by three edges
// counts once. Protected tops and candidates come from each user's
// latest journal round: in a cluster only merges build tables, and every
// replica converges to its round's table, so summing the edges would
// count each table once per replica.
func (c *Cluster) Stats() core.EngineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	users := make(map[string]struct{})
	for _, n := range c.nodes {
		for _, id := range n.Engine.Users() {
			users[id] = struct{}{}
		}
	}
	st := core.EngineStats{Users: len(users)}
	for _, round := range c.journal {
		st.ProtectedTops += len(round.entries)
		for _, e := range round.entries {
			st.Candidates += len(e.Candidates)
		}
	}
	return st
}

// NodeLag returns how many users edge i is known to be behind on — the
// size of its lag map, which a healthy caught-up cluster keeps at zero.
func (c *Cluster) NodeLag(i int) int {
	if i < 0 || i >= len(c.nodes) {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i].lagLen()
}

// edgeSeed derives the engine seed of edge i from the cluster seed. The
// base seed is avalanched with SplitMix64 BEFORE the golden-ratio index
// increment (the internal/par.MapSeeded recipe): a plain
// seed + i*GoldenGamma is linear in both arguments, so cluster seed s
// edge 1 would share a stream with cluster seed s+GoldenGamma edge 0.
func edgeSeed(clusterSeed uint64, i int) uint64 {
	return randx.Mix64(randx.Mix64(clusterSeed) + uint64(i)*randx.GoldenGamma)
}

// mergeSeed derives the secure-aggregation session seed of the merge
// round that takes the given journal version, with edgeSeed's
// avalanche-then-increment recipe; it stands in for a deployment's
// per-round key agreement. The pairwise masks are a function of the
// session seed alone, so a seed reused across rounds would let anyone
// holding two shares of one edge subtract them into the difference of
// its two plaintext histograms.
func mergeSeed(clusterSeed, version uint64) uint64 {
	return randx.Mix64(randx.Mix64(clusterSeed) + version*randx.GoldenGamma)
}

// secureMerge is the secure aggregation a merge round runs; tests swap
// it to observe the session seeds rounds run under.
var secureMerge = secagg.MergeProfiles

// New validates cfg and builds the cluster with one engine per coverage
// disk. All nodes start live.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Coverage) == 0 {
		return nil, fmt.Errorf("edgecluster: at least one coverage disk required")
	}
	for i, c := range cfg.Coverage {
		if !(c.Radius > 0) || math.IsInf(c.Radius, 0) {
			return nil, fmt.Errorf("edgecluster: coverage %d radius %g must be positive and finite", i, c.Radius)
		}
	}
	if cfg.MergeRegion.Width() <= 0 || cfg.MergeRegion.Height() <= 0 {
		return nil, fmt.Errorf("edgecluster: degenerate merge region %+v", cfg.MergeRegion)
	}
	if cfg.MergeCell <= 0 {
		cfg.MergeCell = cfg.Engine.ConnectivityThreshold
		if cfg.MergeCell <= 0 {
			cfg.MergeCell = profile.DefaultConnectivityThreshold
		}
	}
	if cfg.EtaFraction <= 0 {
		cfg.EtaFraction = 0.9
	}

	cluster := &Cluster{cfg: cfg, journal: make(map[string]*mergeRound)}
	for i, cov := range cfg.Coverage {
		engineCfg := cfg.Engine
		engineCfg.Seed = edgeSeed(cfg.Seed, i)
		// Profile recomputation belongs exclusively to the merge protocol:
		// a single-edge engine rebuilds on its own when a report closes the
		// profile window, but here that would obfuscate the same top
		// independently on every edge that observes the user — voiding the
		// single-obfuscator invariant on any trace longer than the window.
		// Disable per-edge auto-rebuild by pushing the window out of reach.
		engineCfg.ProfileWindow = time.Duration(math.MaxInt64)
		engine, err := core.NewEngine(engineCfg)
		if err != nil {
			return nil, fmt.Errorf("edgecluster: building edge %d: %w", i, err)
		}
		cluster.nodes = append(cluster.nodes, &Node{
			ID:       fmt.Sprintf("edge-%02d", i),
			Coverage: cov,
			Engine:   engine,
			lag:      make(map[string]uint64),
		})
	}
	return cluster, nil
}

// Nodes returns the cluster's edges.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// SetReachable flips edge i's endpoint between answering and dead — the
// chaos seam simulating process kill or partition. It does NOT touch the
// cluster's health belief: discovering (and eventually reviving) the
// node is the failure detector's job, or an operator's via
// MarkDown/MarkUp.
func (c *Cluster) SetReachable(i int, reachable bool) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("edgecluster: no edge %d", i)
	}
	c.nodes[i].unreachable.Store(!reachable)
	return nil
}

// MarkDown marks edge i unhealthy: routing and replication skip it until
// MarkUp. Marking an already-down node is a no-op.
func (c *Cluster) MarkDown(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("edgecluster: no edge %d", i)
	}
	if !c.nodes[i].down.Swap(true) {
		if m := c.met.Load(); m != nil {
			m.nodesDown.Inc()
		}
	}
	return nil
}

// MarkUp revives edge i and replays the replication journal so its
// tables catch up to the current merged state before it takes traffic
// again. The returned error reports catch-up failures; the node stays
// live (and cleanly retryable via Reconcile) either way.
func (c *Cluster) MarkUp(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("edgecluster: no edge %d", i)
	}
	n := c.nodes[i]
	c.mu.Lock()
	// Catch up BEFORE flipping the health flag: the revived edge must not
	// serve a stale table while the replay is still in flight.
	err := c.catchUpLocked(n)
	c.mu.Unlock()
	if n.down.Swap(false) {
		if m := c.met.Load(); m != nil {
			m.nodesDown.Dec()
		}
	}
	return err
}

// RestartNode simulates a full process restart of edge i backed by
// durable storage: a fresh engine is built from the node's
// configuration, its state is recovered from st (latest checkpoint +
// WAL tail replay), and the replication journal is then replayed on
// top. The recovered state — not a cold engine — is the catch-up
// baseline, so a revived node only needs the journal for rounds merged
// while it was down, and its permanent obfuscation table (the
// longitudinal guarantee) survives the crash byte-identically. The node
// is marked live on return; a catch-up failure is reported but leaves
// the node retryable via Reconcile, matching MarkUp.
func (c *Cluster) RestartNode(i int, st core.DurableStore) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("edgecluster: no edge %d", i)
	}
	n := c.nodes[i]
	engine, err := core.NewEngine(n.Engine.Config())
	if err != nil {
		return fmt.Errorf("edgecluster: rebuilding engine for %s: %w", n.ID, err)
	}
	if _, err := engine.Recover(st); err != nil {
		return fmt.Errorf("edgecluster: recovering %s: %w", n.ID, err)
	}
	c.mu.Lock()
	n.Engine = engine
	// The lag map tracked the dead process's journal position, but a
	// recovered engine can be behind what the bookkeeping says: a WAL
	// running fsync=interval/never loses its tail on a crash, silently
	// rewinding users the cluster believed current. Audit the whole
	// journal content-addressed instead of trusting the map: each user's
	// recovered table proves (by fingerprint chain) which prefix it
	// holds, users whose tables and tops already match the journal head
	// ship nothing, and the rest receive exactly the missing suffix —
	// the node's own WAL does the bulk of the recovery, the journal only
	// fills genuinely missed rounds.
	err = c.auditLocked(n)
	c.mu.Unlock()
	if n.down.Swap(false) {
		if m := c.met.Load(); m != nil {
			m.nodesDown.Dec()
		}
	}
	return err
}

// Reconcile replays the journal to every live node that is behind (a
// replica that failed mid-round, or a revival whose catch-up errored).
// It is idempotent: a fully consistent cluster is a no-op.
func (c *Cluster) Reconcile() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, n := range c.nodes {
		if n.down.Load() || !n.Reachable() {
			continue
		}
		if err := c.catchUpLocked(n); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// catchUpLocked applies the journal head for every user the node is
// known to be behind on. It walks the lag map, not the journal, so
// catch-up cost is proportional to how far the node fell behind, not to
// the cluster's total user count. The caller holds c.mu.
func (c *Cluster) catchUpLocked(n *Node) error {
	var firstErr error
	for userID := range n.lag {
		round := c.journal[userID]
		if round == nil {
			// The lag entry outlived its journal round; nothing to apply.
			delete(n.lag, userID)
			continue
		}
		if err := c.applyRoundLocked(n, userID, round, false); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if m := c.met.Load(); m != nil {
			m.journalReplays.Inc()
		}
	}
	return firstErr
}

// auditLocked walks the WHOLE journal and repairs any user whose state
// on n is not byte-identical to the journal head — the recovery path
// where the lag bookkeeping cannot be trusted (a restarted process may
// have lost WAL tail beyond what the map records). Users whose content
// proof (fingerprint chain) and installed tops already match ship
// nothing at all. The caller holds c.mu.
func (c *Cluster) auditLocked(n *Node) error {
	var firstErr error
	for userID, round := range c.journal {
		ln, fp, err := n.Engine.TableState(userID)
		if err == nil && ln == len(round.entries) && fp == round.prefix[ln] && c.topsCurrent(n, userID, round) {
			delete(n.lag, userID)
			continue
		}
		if err := c.applyRoundLocked(n, userID, round, false); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if m := c.met.Load(); m != nil {
			m.journalReplays.Inc()
		}
	}
	return firstErr
}

// topsCurrent reports whether the node already has the round's merged
// top set installed, so an audit can skip the user entirely.
func (c *Cluster) topsCurrent(n *Node, userID string, round *mergeRound) bool {
	got, err := n.Engine.TopLocations(userID)
	if err != nil || len(got) != len(round.tops) {
		return false
	}
	for i := range got {
		if got[i] != round.tops[i] {
			return false
		}
	}
	return true
}

// resolveBaseLocked returns how many of the round's entries the replica
// already holds, verified by content: the replica's table length and
// fingerprint must name a prefix of the round's chain. ok is false when
// the proof fails — the replica diverged arbitrarily (corrupt store,
// foreign state) and needs the full snapshot. The caller holds c.mu.
func (c *Cluster) resolveBaseLocked(n *Node, userID string, round *mergeRound) (base int, ok bool) {
	ln, fp, err := n.Engine.TableState(userID)
	if err != nil {
		return 0, false
	}
	if ln <= len(round.entries) && round.prefix[ln] == fp {
		return ln, true
	}
	return 0, false
}

// applyRoundLocked installs one journal round on a replica as a
// content-addressed delta: resolve the prefix the replica proves it
// holds, ship only the suffix beyond it (a failed proof falls back to
// the full snapshot, which the idempotent import — existing entries win
// — still converges), then install the merged top set so TopLocations
// answers identically on every edge. The shipped frame is sized with
// the real wire encoding so the replication metrics report bytes a
// networked deployment would put on the wire. merged reports whether
// the replica's pending check-ins were part of this round (live
// replication consumes the collection window; a catch-up replay
// preserves pending check-ins that never merged, so they contribute to
// the next round). On failure the node keeps a lag entry for the round,
// staying cleanly retryable. The caller holds c.mu.
func (c *Cluster) applyRoundLocked(n *Node, userID string, round *mergeRound, merged bool) (err error) {
	defer func() {
		if err != nil {
			n.lag[userID] = round.version
		} else {
			delete(n.lag, userID)
		}
	}()
	if !n.Reachable() {
		return fmt.Errorf("edgecluster: replicating round %d to %s: node unreachable", round.version, n.ID)
	}
	if n.failApply != nil {
		if err := n.failApply(userID); err != nil {
			return fmt.Errorf("edgecluster: replicating round %d to %s: %w", round.version, n.ID, err)
		}
	}
	base, ok := c.resolveBaseLocked(n, userID, round)
	if !ok {
		c.repl.Fallbacks++
		if m := c.met.Load(); m != nil {
			m.snapshotFallbacks.Inc()
		}
	}
	delta := wire.ReplDelta{
		UserID:  userID,
		Version: round.version,
		BaseLen: base,
		BaseFP:  round.prefix[base],
		FullFP:  round.prefix[len(round.entries)],
		Entries: round.entries[base:],
		Tops:    round.tops,
		At:      round.at,
	}
	c.encBuf = wire.Append(c.encBuf[:0], &delta)
	c.repl.DeltaBytes += len(c.encBuf)
	c.repl.SnapshotBytes += round.snapshotBytes
	c.repl.Entries += len(delta.Entries)
	if m := c.met.Load(); m != nil {
		m.replicationBytes.Add(uint64(len(c.encBuf)))
		m.replicationSnapshotBytes.Add(uint64(round.snapshotBytes))
		m.replicationEntries.Add(uint64(len(delta.Entries)))
	}
	if err := n.Engine.ImportTable(userID, delta.Entries); err != nil {
		return fmt.Errorf("edgecluster: replicating table to %s: %w", n.ID, err)
	}
	install := n.Engine.SyncTops
	if merged {
		install = n.Engine.InstallTops
	}
	if err := install(userID, round.tops, round.at); err != nil {
		return fmt.Errorf("edgecluster: installing tops at %s: %w", n.ID, err)
	}
	return nil
}

// route returns the covering LIVE edge nearest to pos, failing over past
// down or unreachable nodes to the next-nearest covering edge. A dead
// node the detector has not yet confirmed is skipped the same way a
// marked-down one is — the request path is its own passive failure
// detector. failedOver reports that the nearest covering edge was
// skipped, so callers can attribute the hop in their trace.
func (c *Cluster) route(pos geo.Point) (n *Node, failedOver bool, err error) {
	var best, bestLive *Node
	bestD, bestLiveD := math.Inf(1), math.Inf(1)
	for _, n := range c.nodes {
		d := n.Coverage.Center.Dist(pos)
		if d > n.Coverage.Radius {
			continue
		}
		if d < bestD {
			best, bestD = n, d
		}
		if !n.down.Load() && n.Reachable() && d < bestLiveD {
			bestLive, bestLiveD = n, d
		}
	}
	if best == nil {
		return nil, false, fmt.Errorf("%w: (%.0f, %.0f)", ErrNoCoverage, pos.X, pos.Y)
	}
	if bestLive == nil {
		return nil, false, fmt.Errorf("%w: every edge covering (%.0f, %.0f) is down", ErrNoLiveEdge, pos.X, pos.Y)
	}
	if bestLive != best {
		if m := c.met.Load(); m != nil {
			m.failovers.Inc()
		}
		return bestLive, true, nil
	}
	return bestLive, false, nil
}

// Report routes a check-in to the nearest covering live edge and returns
// its ID.
func (c *Cluster) Report(userID string, pos geo.Point, at time.Time) (string, error) {
	return c.ReportCtx(context.Background(), userID, pos, at)
}

// ReportCtx is Report with trace context: a check-in that failed over
// past a down edge runs inside a failover span, and the engine's apply
// and WAL work record their own spans under it — the same trace ID all
// the way from the client's traceparent to the fsync.
func (c *Cluster) ReportCtx(ctx context.Context, userID string, pos geo.Point, at time.Time) (string, error) {
	node, failedOver, err := c.route(pos)
	if err != nil {
		return "", err
	}
	if failedOver {
		var sp *tracing.Span
		ctx, sp = tracing.StartSpan(ctx, tracing.StageFailover)
		defer sp.End()
	}
	if err := node.Engine.ReportCtx(ctx, userID, pos, at); err != nil {
		return "", fmt.Errorf("edgecluster: reporting to %s: %w", node.ID, err)
	}
	return node.ID, nil
}

// ReportBatch routes a batch of check-ins across the cluster. Each item
// routes independently (failing over past down nodes exactly like
// Report), so one batch from a roaming user may fan out to several
// edges; items landing on the same edge are delivered as one
// Engine.ReportBatch call in their original arrival order. Items that
// route nowhere — or that the engine rejects — come back as per-item
// errors keyed by input index; the rest of the batch is still ingested.
func (c *Cluster) ReportBatch(items []core.BatchReport) []core.BatchError {
	return c.ReportBatchCtx(context.Background(), items)
}

// ReportBatchCtx is ReportBatch with trace context. A per-edge delivery
// whose items all routed past a down node runs inside a failover span;
// mixed groups (some items failed over, some not) attribute the whole
// delivery to failover, since the hop is per-delivery, not per-item.
func (c *Cluster) ReportBatchCtx(ctx context.Context, items []core.BatchReport) []core.BatchError {
	var errs []core.BatchError
	groups := make(map[*Node][]core.BatchReport)
	indexes := make(map[*Node][]int)
	failed := make(map[*Node]bool)
	var order []*Node
	for i, item := range items {
		node, failedOver, err := c.route(item.Pos)
		if err != nil {
			errs = append(errs, core.BatchError{Index: i, Err: err})
			continue
		}
		if _, ok := groups[node]; !ok {
			order = append(order, node)
		}
		groups[node] = append(groups[node], item)
		indexes[node] = append(indexes[node], i)
		if failedOver {
			failed[node] = true
		}
	}
	for _, node := range order {
		deliver := func(ctx context.Context) []core.BatchError {
			return node.Engine.ReportBatchCtx(ctx, groups[node])
		}
		var batchErrs []core.BatchError
		if failed[node] {
			fctx, sp := tracing.StartSpan(ctx, tracing.StageFailover)
			batchErrs = deliver(fctx)
			sp.End()
		} else {
			batchErrs = deliver(ctx)
		}
		for _, be := range batchErrs {
			errs = append(errs, core.BatchError{
				Index: indexes[node][be.Index],
				Err:   fmt.Errorf("edgecluster: reporting to %s: %w", node.ID, be.Err),
			})
		}
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return errs
}

// Request routes an LBA request to the nearest covering live edge.
func (c *Cluster) Request(userID string, pos geo.Point) (geo.Point, bool, error) {
	return c.RequestCtx(context.Background(), userID, pos)
}

// RequestCtx is Request with trace context: a request answered by a
// failover edge carries a failover span around the engine call, so the
// per-stage breakdown separates re-routed serving cost from the happy
// path.
func (c *Cluster) RequestCtx(ctx context.Context, userID string, pos geo.Point) (geo.Point, bool, error) {
	node, failedOver, err := c.route(pos)
	if err != nil {
		return geo.Point{}, false, err
	}
	if failedOver {
		var sp *tracing.Span
		ctx, sp = tracing.StartSpan(ctx, tracing.StageFailover)
		defer sp.End()
	}
	out, fromTable, err := node.Engine.RequestCtx(ctx, userID, pos)
	if err != nil {
		return geo.Point{}, false, fmt.Errorf("edgecluster: requesting at %s: %w", node.ID, err)
	}
	return out, fromTable, nil
}

// MergeStats describes how a merge round went: how much of the cluster
// participated and what was left behind.
type MergeStats struct {
	// Version is the journal version this round produced.
	Version uint64
	// Obfuscator is the node that obfuscated this round's new tops.
	Obfuscator string
	// Live is the number of edges that contributed and received the round.
	Live int
	// SkippedDown is the number of down edges excluded from the round;
	// their pending check-ins stay queued for a later round and their
	// tables catch up from the journal at MarkUp.
	SkippedDown int
	// Dropped counts merged check-ins outside MergeRegion; they are
	// excluded from the aggregate (and counted in telemetry) rather than
	// failing the round.
	Dropped int
	// ReplicaErrors is the number of live replicas the round failed to
	// apply to; they remain on their previous version and catch up on the
	// next merge, a Reconcile, or their next MarkUp.
	ReplicaErrors int
	// Degraded reports a round that did not reach the whole cluster
	// (SkippedDown > 0 or ReplicaErrors > 0).
	Degraded bool
	// DeltaBytes is the wire bytes this round actually shipped to
	// replicas (content-addressed delta frames).
	DeltaBytes int
	// SnapshotBytes is what the old full-snapshot scheme would have
	// shipped for the same applies.
	SnapshotBytes int
	// DeltaEntries is the table entries this round shipped.
	DeltaEntries int
}

// MergeProfiles runs the periodic profile merge for one user:
//
//  1. every LIVE edge contributes its pending partial profile,
//  2. the partials are combined with the secure aggregation protocol
//     under a session seed fresh to the round (no edge reveals its
//     plaintext histogram),
//  3. the η-frequent top set is computed on the merged profile,
//  4. the lowest-indexed live edge — this round's obfuscator — installs
//     the tops (new ones are obfuscated exactly once),
//  5. the round is recorded in the versioned replication journal, and
//  6. the journal round applies to every other live edge; failures leave
//     that replica cleanly retryable instead of aborting the round.
//
// It returns the merged top set. Users the cluster has never seen yield
// ErrUnknownUser from the underlying engines; a cluster with every edge
// down yields ErrNoLiveEdge.
func (c *Cluster) MergeProfiles(userID string, now time.Time) (profile.Profile, error) {
	tops, _, err := c.MergeProfilesStats(userID, now)
	return tops, err
}

// MergeProfilesStats is MergeProfiles with per-round statistics: which
// node obfuscated, how many edges were skipped or failed replication,
// and how many out-of-region locations were dropped from the aggregate.
func (c *Cluster) MergeProfilesStats(userID string, now time.Time) (profile.Profile, MergeStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	var stats MergeStats
	live := make([]*Node, 0, len(c.nodes))
	excluded := make([]*Node, 0, 2)
	for _, n := range c.nodes {
		// An unreachable node the detector has not yet confirmed down is
		// excluded exactly like a marked-down one: the merge protocol
		// cannot wait on a dead endpoint, and the journal lets it catch up
		// on revival either way.
		if n.down.Load() || !n.Reachable() {
			stats.SkippedDown++
			excluded = append(excluded, n)
			continue
		}
		live = append(live, n)
	}
	if len(live) == 0 {
		return nil, stats, fmt.Errorf("%w: merge for %q with every edge down", ErrNoLiveEdge, userID)
	}
	stats.Live = len(live)

	partials := make([]profile.Profile, 0, len(live))
	seen := false
	for _, n := range live {
		part, err := n.Engine.PendingProfile(userID)
		switch {
		case errors.Is(err, core.ErrUnknownUser):
			partials = append(partials, nil) // this edge never saw the user
		case err != nil:
			return nil, stats, fmt.Errorf("edgecluster: partial profile at %s: %w", n.ID, err)
		default:
			seen = true
			partials = append(partials, part)
		}
	}
	if !seen {
		return nil, stats, fmt.Errorf("edgecluster: merge for %q: %w", userID, core.ErrUnknownUser)
	}

	// Take the round's journal version before its secure session: the
	// session seed derives from it, so a round that fails after the
	// session must not leave its version, and with it its pad, to the
	// next round.
	c.version++
	version := c.version

	var merged profile.Profile
	if len(live) == 1 {
		merged = partials[0]
	} else {
		var dropped int
		var err error
		merged, dropped, err = secureMerge(partials, c.cfg.MergeRegion, c.cfg.MergeCell, mergeSeed(c.cfg.Seed, version))
		if err != nil {
			return nil, stats, fmt.Errorf("edgecluster: secure merge for %q: %w", userID, err)
		}
		// A stray check-in outside the aggregation region must not block
		// the user's merges forever: complete the round on the in-region
		// mass and surface the drop count instead of failing.
		if dropped > 0 {
			stats.Dropped = dropped
			if m := c.met.Load(); m != nil {
				m.mergeDropped.Add(uint64(dropped))
			}
		}
	}
	tops := merged.EtaFractionSet(c.cfg.EtaFraction)

	// Install at this round's obfuscator: the lowest-indexed LIVE node.
	// The obfuscator must be CURRENT before generating candidates: a node
	// revived in the instant between a round's snapshot and its health
	// flip can be live yet missing that round's entries, and obfuscating
	// from a stale table would re-obfuscate an already-protected top —
	// the exact longitudinal leak the shared table prevents. Replaying
	// the user's latest journal round first closes that window.
	obfuscator := live[0]
	stats.Obfuscator = obfuscator.ID
	if _, behind := obfuscator.lag[userID]; behind {
		if prev := c.journal[userID]; prev != nil {
			if err := c.applyRoundLocked(obfuscator, userID, prev, false); err != nil {
				return nil, stats, fmt.Errorf("edgecluster: catching obfuscator %s up: %w", obfuscator.ID, err)
			}
		}
	}
	if err := obfuscator.Engine.InstallTops(userID, tops, now); err != nil {
		return nil, stats, fmt.Errorf("edgecluster: installing tops at %s: %w", obfuscator.ID, err)
	}
	entries, err := obfuscator.Engine.Table(userID)
	if err != nil {
		return nil, stats, fmt.Errorf("edgecluster: reading table at %s: %w", obfuscator.ID, err)
	}

	// Journal the round BEFORE touching replicas: from here on the merged
	// state has one authoritative record, and any replica — including one
	// that fails right now — converges to it by replaying the journal.
	// The fingerprint chain computed here is the round's content address:
	// every replica proves its prefix against it, and the byte-identity
	// gate compares its final value.
	round := &mergeRound{version: version, tops: tops, entries: entries, at: now}
	round.prefix = make([]uint64, len(entries)+1)
	round.prefix[0] = core.FingerprintSeed
	for i := range entries {
		round.prefix[i+1] = core.ExtendFingerprint(round.prefix[i], entries[i:i+1])
	}
	c.encBuf = wire.Append(c.encBuf[:0], &wire.ReplDelta{
		UserID:  userID,
		Version: version,
		BaseFP:  core.FingerprintSeed,
		FullFP:  round.prefix[len(entries)],
		Entries: entries,
		Tops:    tops,
		At:      now,
	})
	round.snapshotBytes = len(c.encBuf)
	c.journal[userID] = round
	stats.Version = round.version
	delete(obfuscator.lag, userID)
	// Excluded nodes miss this round by construction; record the debt so
	// their revival catch-up walks exactly the users they fell behind on.
	for _, n := range excluded {
		n.lag[userID] = round.version
	}

	before := c.repl
	for _, n := range live[1:] {
		if err := c.applyRoundLocked(n, userID, round, true); err != nil {
			stats.ReplicaErrors++
			if m := c.met.Load(); m != nil {
				m.replicaErrors.Inc()
			}
		}
	}
	stats.DeltaBytes = c.repl.DeltaBytes - before.DeltaBytes
	stats.SnapshotBytes = c.repl.SnapshotBytes - before.SnapshotBytes
	stats.DeltaEntries = c.repl.Entries - before.Entries
	stats.Degraded = stats.SkippedDown > 0 || stats.ReplicaErrors > 0
	if m := c.met.Load(); m != nil {
		m.merges.Inc()
		if stats.Degraded {
			m.degradedMerges.Inc()
		}
	}
	return tops, stats, nil
}
