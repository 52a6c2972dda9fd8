package edgecluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/telemetry"
)

// overlappingEdges gives every point several covering edges, so killing
// one leaves a live fallback — the geometry failover needs.
func overlappingEdges() []geo.Circle {
	return []geo.Circle{
		{Center: geo.Point{X: 0, Y: 0}, Radius: 15_000},
		{Center: geo.Point{X: 5_000, Y: 0}, Radius: 15_000},
		{Center: geo.Point{X: 0, Y: 5_000}, Radius: 15_000},
	}
}

func fingerprint(t *testing.T, n *Node, userID string) uint64 {
	t.Helper()
	fp, err := n.Engine.TableFingerprint(userID)
	if err != nil {
		t.Fatalf("fingerprint at %s: %v", n.ID, err)
	}
	return fp
}

// nodesDown reads cluster_nodes_down from reg's exposition.
func nodesDown(t *testing.T, reg *telemetry.Registry) int {
	t.Helper()
	return gaugeValue(t, reg, "cluster_nodes_down")
}

// gaugeValue reads the unlabelled gauge name from reg's exposition: the
// cluster's gauges are computed at scrape time, so the registry hands
// out no handle to them.
func gaugeValue(t *testing.T, reg *telemetry.Registry, name string) int {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s series", name)
	return 0
}

// TestNodesDownExactWhenInstrumentedLate pins cluster_nodes_down to the
// nodes' down flags: an edge marked down before Instrument counts, and
// reviving it brings the gauge back to 0, not below.
func TestNodesDownExactWhenInstrumentedLate(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	if got := nodesDown(t, reg); got != 1 {
		t.Errorf("nodes_down after MarkDown then Instrument = %d, want 1", got)
	}
	if err := c.MarkUp(2); err != nil {
		t.Fatal(err)
	}
	if got := nodesDown(t, reg); got != 0 {
		t.Errorf("nodes_down after MarkUp = %d, want 0", got)
	}
}

func TestFailoverRouting(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	now := time.Now()
	pos := geo.Point{X: 200, Y: 100} // nearest: edge-00, then edge-01

	if node, err := c.Report("u", pos, now); err != nil || node != "edge-00" {
		t.Fatalf("healthy routing = %s, %v", node, err)
	}
	if err := c.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	node, err := c.Report("u", pos, now)
	if err != nil || node != "edge-01" {
		t.Fatalf("failover routing = %s, %v; want edge-01", node, err)
	}
	if got := reg.Counter("cluster_failovers_total", "").Value(); got != 1 {
		t.Errorf("failovers counter = %d, want 1", got)
	}

	// Every covering edge down: live-edge error, distinct from no
	// coverage at all.
	if err := c.MarkDown(1); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report("u", pos, now); !errors.Is(err, ErrNoLiveEdge) {
		t.Errorf("all-down report error = %v, want ErrNoLiveEdge", err)
	}
	if _, _, err := c.Request("u", pos); !errors.Is(err, ErrNoLiveEdge) {
		t.Errorf("all-down request error = %v, want ErrNoLiveEdge", err)
	}
	if _, err := c.Report("u", geo.Point{X: 90_000, Y: 90_000}, now); !errors.Is(err, ErrNoCoverage) {
		t.Errorf("uncovered report error = %v, want ErrNoCoverage", err)
	}

	if err := c.MarkUp(0); err != nil {
		t.Fatal(err)
	}
	if node, err := c.Report("u", pos, now); err != nil || node != "edge-00" {
		t.Errorf("post-revival routing = %s, %v", node, err)
	}
	if got := nodesDown(t, reg); got != 2 {
		t.Errorf("nodes_down gauge = %d, want 2", got)
	}
	if err := c.MarkDown(0); err != nil { // double-down is a no-op
		t.Fatal(err)
	}
	if err := c.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	if got := nodesDown(t, reg); got != 3 {
		t.Errorf("nodes_down gauge after double MarkDown = %d, want 3", got)
	}
}

// TestChaosDegradedMergeAndJournalCatchUp is the chaos regression of the
// fault-tolerance layer: with three edges and one killed mid-run,
// requests fail over to a covering live edge, MergeProfiles completes in
// degraded mode, and after revival the recovered edge's obfuscation
// table is byte-identical to the obfuscator's via journal catch-up —
// including when the killed edge is the designated obfuscator itself.
func TestChaosDegradedMergeAndJournalCatchUp(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Instrument(reg)

	home := geo.Point{X: 0, Y: 0}      // nearest edge-00
	work := geo.Point{X: 5_100, Y: 0}  // nearest edge-01
	gym := geo.Point{X: 100, Y: 5_100} // nearest edge-02
	rnd := randx.New(7, 7)
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	user := "chaos"
	visit := func(pos geo.Point, times int) {
		for i := 0; i < times; i++ {
			at = at.Add(time.Hour)
			if _, err := c.Report(user, pos.Add(rnd.GaussianPolar(10)), at); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Round 1: full cluster.
	visit(home, 120)
	visit(work, 60)
	if _, stats, err := c.MergeProfilesStats(user, at); err != nil || stats.Degraded {
		t.Fatalf("healthy merge: stats=%+v err=%v", stats, err)
	}
	base := fingerprint(t, c.Nodes()[0], user)
	for _, n := range c.Nodes()[1:] {
		if fp := fingerprint(t, n, user); fp != base {
			t.Fatalf("healthy replication: %s fingerprint %x != obfuscator %x", n.ID, fp, base)
		}
	}

	// Kill edge-02 mid-run: traffic near it fails over, the merge
	// degrades, and its table goes stale.
	if err := c.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	if node, err := c.Report(user, gym, at.Add(time.Minute)); err != nil || node == "edge-02" {
		t.Fatalf("report near dead edge routed to %s, %v", node, err)
	}
	if reg.Counter("cluster_failovers_total", "").Value() == 0 {
		t.Error("failover counter did not move")
	}
	visit(home, 60)
	visit(work, 30)
	tops, stats, err := c.MergeProfilesStats(user, at)
	if err != nil {
		t.Fatalf("degraded merge: %v", err)
	}
	if !stats.Degraded || stats.SkippedDown != 1 || stats.Live != 2 || stats.Obfuscator != "edge-00" {
		t.Fatalf("degraded merge stats = %+v", stats)
	}
	if len(tops) == 0 {
		t.Fatal("degraded merge returned no tops")
	}
	fp0 := fingerprint(t, c.Nodes()[0], user)
	if fp := fingerprint(t, c.Nodes()[1], user); fp != fp0 {
		t.Fatalf("live replica diverged during degraded merge: %x vs %x", fp, fp0)
	}

	// Revival: journal catch-up must leave the recovered table
	// byte-identical to the obfuscator's.
	if err := c.MarkUp(2); err != nil {
		t.Fatalf("MarkUp(2): %v", err)
	}
	if fp := fingerprint(t, c.Nodes()[2], user); fp != fp0 {
		t.Fatalf("revived edge not caught up: %x vs obfuscator %x", fp, fp0)
	}
	if reg.Counter("cluster_journal_replays_total", "").Value() == 0 {
		t.Error("journal replay counter did not move")
	}
	if got := reg.Counter("cluster_degraded_merges_total", "").Value(); got != 1 {
		t.Errorf("degraded merges counter = %d, want 1", got)
	}

	// Now kill the obfuscator itself: the round falls over to the next
	// live node, which obfuscates the NEW top exactly once; the revived
	// former obfuscator catches up to that table byte-for-byte.
	if err := c.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	visit(gym, 150) // a new frequent location while edge-00 is dead
	tops, stats, err = c.MergeProfilesStats(user, at)
	if err != nil {
		t.Fatalf("obfuscator-down merge: %v", err)
	}
	if stats.Obfuscator != "edge-01" || !stats.Degraded {
		t.Fatalf("obfuscator fallback stats = %+v", stats)
	}
	foundGym := false
	for _, lf := range tops {
		if lf.Loc.Dist(gym) < 80 {
			foundGym = true
		}
	}
	if !foundGym {
		t.Fatalf("gym missing from merged tops %+v", tops)
	}
	before := fingerprint(t, c.Nodes()[0], user)
	fp1 := fingerprint(t, c.Nodes()[1], user)
	if before == fp1 {
		t.Fatal("dead edge unexpectedly already matches the new obfuscator")
	}
	if err := c.MarkUp(0); err != nil {
		t.Fatalf("MarkUp(0): %v", err)
	}
	if fp := fingerprint(t, c.Nodes()[0], user); fp != fp1 {
		t.Fatalf("revived ex-obfuscator not caught up: %x vs %x", fp, fp1)
	}
	if fp := fingerprint(t, c.Nodes()[2], user); fp != fp1 {
		t.Fatalf("replica diverged from fallback obfuscator: %x vs %x", fp, fp1)
	}
}

// TestReplicationFailureRetry pins the satellite bugfix: a replication
// failure at node 1 of 3 must leave the round cleanly retryable — after
// the retry every table agrees again, with no re-obfuscation.
func TestReplicationFailureRetry(t *testing.T) {
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	rnd := randx.New(3, 3)
	home := geo.Point{X: 100, Y: 100}
	work := geo.Point{X: 19_500, Y: 100}
	at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		at = at.Add(time.Hour)
		pos := home
		if i%3 == 0 {
			pos = work
		}
		if _, err := c.Report("victim", pos.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}

	c.Nodes()[1].SetFailApply(func(string) error { return errors.New("injected crash") })
	_, stats, err := c.MergeProfilesStats("victim", at)
	if err != nil {
		t.Fatalf("merge with failing replica must still complete: %v", err)
	}
	if stats.ReplicaErrors != 1 || !stats.Degraded {
		t.Fatalf("stats = %+v, want 1 replica error", stats)
	}
	fp0 := fingerprint(t, c.Nodes()[0], "victim")
	if fp := fingerprint(t, c.Nodes()[1], "victim"); fp == fp0 {
		t.Fatal("failed replica unexpectedly matches the obfuscator")
	}
	if fp := fingerprint(t, c.Nodes()[2], "victim"); fp != fp0 {
		t.Fatalf("healthy replica diverged: %x vs %x", fp, fp0)
	}

	// Retry: clear the fault and reconcile. The journal round replays
	// idempotently; all three tables agree byte-for-byte.
	c.Nodes()[1].SetFailApply(nil)
	if err := c.Reconcile(); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	for _, n := range c.Nodes() {
		if fp := fingerprint(t, n, "victim"); fp != fp0 {
			t.Fatalf("after retry %s fingerprint %x != %x", n.ID, fp, fp0)
		}
	}
	// A further merge round must not re-obfuscate anything.
	if _, stats, err := c.MergeProfilesStats("victim", at); err != nil || stats.ReplicaErrors != 0 {
		t.Fatalf("post-retry merge: stats=%+v err=%v", stats, err)
	}
	for _, n := range c.Nodes()[1:] {
		if fp := fingerprint(t, n, "victim"); fp != fingerprint(t, c.Nodes()[0], "victim") {
			t.Fatalf("%s diverged after post-retry merge", n.ID)
		}
	}
}

// TestMergeReportsDropsInsteadOfFailing pins the satellite bugfix: one
// stray check-in outside MergeRegion must not permanently block a user's
// merges — the round completes on the in-region mass and reports drops.
func TestMergeReportsDropsInsteadOfFailing(t *testing.T) {
	cfg := testClusterConfig(t, overlappingEdges())
	cfg.MergeRegion = geo.BBox{MinX: -10_000, MinY: -10_000, MaxX: 10_000, MaxY: 10_000}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	rnd := randx.New(11, 11)
	home := geo.Point{X: 0, Y: 0}
	work := geo.Point{X: 5_100, Y: 0}
	at := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 150; i++ {
		at = at.Add(time.Hour)
		pos := home
		if i%3 == 0 {
			pos = work
		}
		if _, err := c.Report("strayer", pos.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}
	// One check-in inside edge-00's coverage but outside the merge region.
	if _, err := c.Report("strayer", geo.Point{X: 0, Y: 14_000}, at); err != nil {
		t.Fatal(err)
	}

	tops, stats, err := c.MergeProfilesStats("strayer", at)
	if err != nil {
		t.Fatalf("merge with stray check-in must complete: %v", err)
	}
	if stats.Dropped == 0 {
		t.Fatal("stats.Dropped = 0, want the stray check-in counted")
	}
	if len(tops) == 0 || tops[0].Loc.Dist(home) > 80 {
		t.Fatalf("merged tops lost the in-region mass: %+v", tops)
	}
	if got := reg.Counter("cluster_merge_dropped_total", "").Value(); got == 0 {
		t.Error("cluster_merge_dropped_total did not move")
	}
}

// TestEdgeSeedDerivation pins the satellite bugfix: per-edge engine
// seeds must not collide across clusters with nearby base seeds. The old
// cfg.Seed + i*GoldenGamma derivation was linear, so cluster s edge 1
// equalled cluster s+GoldenGamma edge 0.
func TestEdgeSeedDerivation(t *testing.T) {
	for _, s := range []uint64{0, 1, 42, 0xDEADBEEF} {
		if a, b := edgeSeed(s, 1), edgeSeed(s+randx.GoldenGamma, 0); a == b {
			t.Errorf("seed %d: edge 1 collides with cluster seed+gamma edge 0 (%x)", s, a)
		}
	}
	seen := make(map[uint64]string)
	for _, s := range []uint64{1, 1 + randx.GoldenGamma, 2, 2 + randx.GoldenGamma} {
		for i := 0; i < 8; i++ {
			seed := edgeSeed(s, i)
			if prev, ok := seen[seed]; ok {
				t.Fatalf("engine seed collision: cluster %d edge %d vs %s", s, i, prev)
			}
			seen[seed] = fmt.Sprintf("cluster %d edge %d", s, i)
		}
	}
}

// TestClusterConcurrentStress exercises concurrent Report / Request /
// MergeProfiles across roaming users while a chaos goroutine kills and
// revives edges; run under -race it verifies the cluster's locking
// discipline (cluster mutex for merge/journal/health transitions,
// engine-level per-user locks for traffic).
func TestClusterConcurrentStress(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	c.Instrument(telemetry.NewRegistry())
	spots := []geo.Point{
		{X: 0, Y: 0},
		{X: 5_100, Y: 0},
		{X: 100, Y: 5_100},
		{X: 2_500, Y: 2_500},
	}
	base := time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)

	const workers = 8
	const opsPerWorker = 150
	var wg, chaosWG sync.WaitGroup
	stop := make(chan struct{})

	// Chaos: cycle one node down and back up at a time until the
	// workers finish.
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			i := k % len(c.Nodes())
			if err := c.MarkDown(i); err != nil {
				t.Error(err)
			}
			if err := c.MarkUp(i); err != nil {
				t.Error(err)
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := randx.New(uint64(w)+100, 0)
			user := fmt.Sprintf("roamer-%02d", w)
			at := base
			for i := 0; i < opsPerWorker; i++ {
				at = at.Add(time.Hour)
				pos := spots[rnd.IntN(len(spots))].Add(rnd.GaussianPolar(15))
				if _, err := c.Report(user, pos, at); err != nil && !errors.Is(err, ErrNoLiveEdge) {
					t.Errorf("report: %v", err)
				}
				if _, _, err := c.Request(user, pos); err != nil &&
					!errors.Is(err, ErrNoLiveEdge) && !errors.Is(err, core.ErrUnknownUser) {
					t.Errorf("request: %v", err)
				}
				if i%40 == 39 {
					if _, _, err := c.MergeProfilesStats(user, at); err != nil &&
						!errors.Is(err, core.ErrUnknownUser) && !errors.Is(err, ErrNoLiveEdge) {
						t.Errorf("merge: %v", err)
					}
				}
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	chaosWG.Wait()

	// Converge and verify the replication invariant end-state.
	for i := range c.Nodes() {
		if err := c.MarkUp(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Reconcile(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		user := fmt.Sprintf("roamer-%02d", w)
		if _, _, err := c.MergeProfilesStats(user, base.Add(opsPerWorker*time.Hour)); err != nil &&
			!errors.Is(err, core.ErrUnknownUser) {
			t.Fatal(err)
		}
		want := fingerprint(t, c.Nodes()[0], user)
		for _, n := range c.Nodes()[1:] {
			if fp := fingerprint(t, n, user); fp != want {
				t.Fatalf("user %s: %s fingerprint %x != %x", user, n.ID, fp, want)
			}
		}
	}
}

// TestNoLocalRebuildOnLongTraces: a single-edge engine rebuilds (and
// obfuscates) on its own when a report closes the 90-day profile window.
// Cluster edges must never do that — each edge would obfuscate the same
// top independently, voiding the single-obfuscator invariant. Regression:
// a two-year trace used to leave byte-divergent tables before any merge
// replicated.
func TestNoLocalRebuildOnLongTraces(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	rnd := randx.New(31, 7)
	// Two years of check-ins alternating between two edges' home turf —
	// far past the default window, so an unsuppressed engine would rebuild
	// locally on both.
	for day := 0; day < 730; day++ {
		at := base.Add(time.Duration(day) * 24 * time.Hour)
		pos := geo.Point{X: 0, Y: 0}
		if day%2 == 1 {
			pos = geo.Point{X: 5000, Y: 0}
		}
		if _, err := c.Report("longhaul", pos.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.Nodes() {
		entries, err := n.Engine.Table("longhaul")
		if err != nil && !errors.Is(err, core.ErrUnknownUser) {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s obfuscated %d tops locally before any merge", n.ID, len(entries))
		}
	}
	// The merge is where obfuscation happens — once, then replicated.
	if _, err := c.MergeProfiles("longhaul", base.AddDate(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, c.Nodes()[0], "longhaul")
	for _, n := range c.Nodes()[1:] {
		if got := fingerprint(t, n, "longhaul"); got != want {
			t.Fatalf("%s fingerprint %x != %x after merge", n.ID, got, want)
		}
	}
}
