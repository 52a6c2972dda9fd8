package edgecluster

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/profile"
	"repro/internal/randx"
	"repro/internal/secagg"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

func testClusterConfig(t *testing.T, coverage []geo.Circle) Config {
	t.Helper()
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Engine:      core.Config{Mechanism: mech, NomadicMechanism: nomadic},
		Coverage:    coverage,
		MergeRegion: geo.BBox{MinX: -50_000, MinY: -50_000, MaxX: 50_000, MaxY: 50_000},
		Seed:        1,
	}
}

func threeEdges() []geo.Circle {
	return []geo.Circle{
		{Center: geo.Point{X: 0, Y: 0}, Radius: 10_000},
		{Center: geo.Point{X: 20_000, Y: 0}, Radius: 10_000},
		{Center: geo.Point{X: 0, Y: 20_000}, Radius: 10_000},
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testClusterConfig(t, threeEdges())

	bad := cfg
	bad.Coverage = nil
	if _, err := New(bad); err == nil {
		t.Error("no coverage expected error")
	}

	bad = cfg
	bad.Coverage = []geo.Circle{{Radius: 0}}
	if _, err := New(bad); err == nil {
		t.Error("zero-radius coverage expected error")
	}

	bad = cfg
	bad.MergeRegion = geo.BBox{}
	if _, err := New(bad); err == nil {
		t.Error("degenerate region expected error")
	}

	bad = cfg
	bad.Engine = core.Config{}
	if _, err := New(bad); err == nil {
		t.Error("invalid engine config expected error")
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 3 {
		t.Errorf("nodes = %d", len(c.Nodes()))
	}
}

func TestRouting(t *testing.T) {
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	tests := []struct {
		pos  geo.Point
		want string
	}{
		{geo.Point{X: 100, Y: 100}, "edge-00"},
		{geo.Point{X: 19_000, Y: 500}, "edge-01"},
		{geo.Point{X: 500, Y: 19_000}, "edge-02"},
	}
	for _, tt := range tests {
		node, err := c.Report("u", tt.pos, now)
		if err != nil {
			t.Fatalf("Report(%v): %v", tt.pos, err)
		}
		if node != tt.want {
			t.Errorf("Report(%v) routed to %s, want %s", tt.pos, node, tt.want)
		}
	}
	if _, err := c.Report("u", geo.Point{X: 40_000, Y: 40_000}, now); !errors.Is(err, ErrNoCoverage) {
		t.Errorf("uncovered report: %v", err)
	}
	if _, _, err := c.Request("u", geo.Point{X: 40_000, Y: 40_000}); !errors.Is(err, ErrNoCoverage) {
		t.Errorf("uncovered request: %v", err)
	}
}

// TestRoamingUserMerge is the package's core scenario: a user splits
// check-ins across two edges; the secure merge recovers the combined top
// set and both edges answer from the SAME permanent candidates.
func TestRoamingUserMerge(t *testing.T) {
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	home := geo.Point{X: 100, Y: 100}    // covered by edge-00
	work := geo.Point{X: 19_500, Y: 100} // covered by edge-01
	rnd := randx.New(4, 4)
	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	at := base
	for i := 0; i < 300; i++ {
		at = at.Add(2 * time.Hour)
		pos := home
		if i%3 == 0 {
			pos = work
		}
		if _, err := c.Report("roamer", pos.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}

	tops, err := c.MergeProfiles("roamer", at)
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) < 2 {
		t.Fatalf("merged tops = %d, want >= 2 (home + work)", len(tops))
	}
	// Home has ~200 visits, work ~100; ranks must reflect that, and the
	// merged locations sit within grid resolution of the truth.
	if d := tops[0].Loc.Dist(home); d > 80 {
		t.Errorf("merged top-1 %g m from home", d)
	}
	if d := tops[1].Loc.Dist(work); d > 80 {
		t.Errorf("merged top-2 %g m from work", d)
	}

	// The replication invariant: both covering edges answer from the
	// same permanent candidate set.
	entries0, err := c.Nodes()[0].Engine.Table("roamer")
	if err != nil {
		t.Fatal(err)
	}
	entries1, err := c.Nodes()[1].Engine.Table("roamer")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries0) == 0 || len(entries0) != len(entries1) {
		t.Fatalf("table sizes differ: %d vs %d", len(entries0), len(entries1))
	}
	allowed := make(map[geo.Point]bool)
	for _, e := range entries0 {
		for _, cand := range e.Candidates {
			allowed[cand] = true
		}
	}
	for _, e := range entries1 {
		for _, cand := range e.Candidates {
			if !allowed[cand] {
				t.Fatalf("edge-01 has candidate %v that edge-00 lacks — independent obfuscation!", cand)
			}
		}
	}

	// Requests at either edge return only permanent candidates.
	for i := 0; i < 50; i++ {
		out, fromTable, err := c.Request("roamer", home)
		if err != nil {
			t.Fatal(err)
		}
		if !fromTable || !allowed[out] {
			t.Fatalf("home request escaped the shared set (fromTable=%v)", fromTable)
		}
		out, fromTable, err = c.Request("roamer", work)
		if err != nil {
			t.Fatal(err)
		}
		if !fromTable || !allowed[out] {
			t.Fatalf("work request escaped the shared set (fromTable=%v)", fromTable)
		}
	}
}

func TestMergeUnknownUser(t *testing.T) {
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeProfiles("ghost", time.Now()); !errors.Is(err, core.ErrUnknownUser) {
		t.Errorf("merge unknown user: %v", err)
	}
}

func TestSingleEdgeClusterMergesWithoutSecagg(t *testing.T) {
	cfg := testClusterConfig(t, []geo.Circle{{Center: geo.Point{}, Radius: 10_000}})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rnd := randx.New(9, 9)
	at := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	home := geo.Point{X: 50, Y: 50}
	for i := 0; i < 100; i++ {
		at = at.Add(time.Hour)
		if _, err := c.Report("solo", home.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}
	tops, err := c.MergeProfiles("solo", at)
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) == 0 || tops[0].Loc.Dist(home) > 20 {
		t.Errorf("single-edge merge tops = %+v", tops)
	}
}

// TestMergeIdempotentCandidates: a second merge round must not
// re-obfuscate already-protected top locations on any edge.
func TestMergeIdempotentCandidates(t *testing.T) {
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	rnd := randx.New(5, 6)
	home := geo.Point{X: 200, Y: 200}
	at := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	feed := func() {
		for i := 0; i < 120; i++ {
			at = at.Add(time.Hour)
			if _, err := c.Report("stable", home.Add(rnd.GaussianPolar(10)), at); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed()
	if _, err := c.MergeProfiles("stable", at); err != nil {
		t.Fatal(err)
	}
	before, err := c.Nodes()[0].Engine.Table("stable")
	if err != nil {
		t.Fatal(err)
	}
	feed()
	if _, err := c.MergeProfiles("stable", at); err != nil {
		t.Fatal(err)
	}
	after, err := c.Nodes()[0].Engine.Table("stable")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("second merge grew the table: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i].Top != after[i].Top {
			t.Fatalf("entry %d top changed", i)
		}
		for j := range before[i].Candidates {
			if before[i].Candidates[j] != after[i].Candidates[j] {
				t.Fatalf("entry %d candidate %d re-obfuscated", i, j)
			}
		}
	}
}

// TestMergeRoundsUseFreshSessionSeeds: the pairwise masks are a
// function of the session seed alone, so two rounds under one seed would
// publish two shares per edge whose difference is the difference of its
// plaintext histograms. Two merges of one user, one merge each of two
// more users, and the rounds around one that fails after its secure
// session must all run under pairwise-distinct seeds.
func TestMergeRoundsUseFreshSessionSeeds(t *testing.T) {
	var seeds []uint64
	merge := secureMerge
	t.Cleanup(func() { secureMerge = merge })
	secureMerge = func(parts []profile.Profile, region geo.BBox, cell float64, seed uint64) (profile.Profile, int, error) {
		seeds = append(seeds, seed)
		return merge(parts, region, cell, seed)
	}
	c, err := New(testClusterConfig(t, threeEdges()))
	if err != nil {
		t.Fatal(err)
	}
	rnd := randx.New(7, 7)
	at := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	home := geo.Point{X: 100, Y: 100}    // edge-00 only
	work := geo.Point{X: 19_500, Y: 100} // edge-01 only
	feed := func(user string, places ...geo.Point) {
		t.Helper()
		for i := 0; i < 40; i++ {
			at = at.Add(time.Hour)
			if _, err := c.Report(user, places[i%len(places)].Add(rnd.GaussianPolar(10)), at); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, user := range []string{"alice", "alice", "bob", "carol"} {
		feed(user, home, work)
		if _, err := c.MergeProfiles(user, at); err != nil {
			t.Fatal(err)
		}
	}

	// edge-00 misses dave's round while down and cannot catch up when it
	// returns, so the next round it obfuscates fails after its session.
	if err := c.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	feed("dave", work)
	if _, err := c.MergeProfiles("dave", at); err != nil {
		t.Fatal(err)
	}
	c.Nodes()[0].SetFailApply(func(string) error { return errors.New("injected crash") })
	if err := c.MarkUp(0); err == nil {
		t.Fatal("catch-up with a failing apply succeeded")
	}
	feed("dave", home, work)
	if _, err := c.MergeProfiles("dave", at); err == nil {
		t.Fatal("a round whose obfuscator cannot catch up succeeded")
	}
	c.Nodes()[0].SetFailApply(nil)
	feed("erin", home, work)
	if _, err := c.MergeProfiles("erin", at); err != nil {
		t.Fatal(err)
	}

	if len(seeds) != 7 {
		t.Fatalf("%d secure sessions ran, want 7", len(seeds))
	}
	for i := range seeds {
		for j := i + 1; j < len(seeds); j++ {
			if seeds[i] == seeds[j] {
				t.Errorf("sessions %d and %d share seed %#x", i+1, j+1, seeds[i])
			}
		}
	}
}

// TestConsecutiveRoundsMaskApart: a pair's mask is its keystream under
// the round's session seed, so consecutive journal versions must give a
// pair keystreams that agree at no position, or two rounds' shares of
// one edge would share a pad. With two parties and zero vectors, party
// 0's share is the pair's mask itself.
func TestConsecutiveRoundsMaskApart(t *testing.T) {
	const length = 1024
	var prev secagg.Vector
	for version := uint64(1); version <= 32; version++ {
		s, err := secagg.NewSession(2, length, mergeSeed(1, version))
		if err != nil {
			t.Fatal(err)
		}
		rows := make(secagg.Vector, 2*length)
		if err := s.Mask(rows); err != nil {
			t.Fatal(err)
		}
		mask := rows[:length]
		for k := range prev {
			if mask[k] == prev[k] {
				t.Fatalf("rounds %d and %d: pair (0, 1) masks agree at word %d", version-1, version, k)
			}
		}
		prev = mask
	}
}

func BenchmarkClusterMerge(b *testing.B) {
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Engine:      core.Config{Mechanism: mech, NomadicMechanism: mech},
		Coverage:    threeEdges(),
		MergeRegion: geo.BBox{MinX: -50_000, MinY: -50_000, MaxX: 50_000, MaxY: 50_000},
		MergeCell:   200,
		Seed:        1,
	}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rnd := randx.New(1, 1)
	at := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		at = at.Add(time.Hour)
		pos := geo.Point{X: 100, Y: 100}
		if i%3 == 0 {
			pos = geo.Point{X: 19_500, Y: 100}
		}
		if _, err := c.Report("bench", pos.Add(rnd.GaussianPolar(10)), at); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.MergeProfiles("bench", at); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFailoverTracePropagation checks that a trace started by the caller
// flows through the cluster's failover routing into the engine: the
// finished trace's ring record carries a failover span (opened because
// the preferred edge was down) and the engine's apply span beneath it,
// all under the caller's trace ID.
func TestFailoverTracePropagation(t *testing.T) {
	// Two overlapping disks, so a point near edge-00's centre still has
	// edge-01 as a failover target.
	coverage := []geo.Circle{
		{Center: geo.Point{X: 0, Y: 0}, Radius: 10_000},
		{Center: geo.Point{X: 5_000, Y: 0}, Radius: 10_000},
	}
	c, err := New(testClusterConfig(t, coverage))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	tracer := tracing.New(7)
	tracer.Instrument(reg)

	pos := geo.Point{X: 1_000, Y: 0}
	now := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	rnd := randx.New(3, 3)
	for i := 0; i < 50; i++ {
		now = now.Add(time.Hour)
		ctx, root := tracer.StartTrace(context.Background(), "cluster.report")
		err := c.ReportCtx(ctx, "u", pos.Add(rnd.GaussianPolar(10)), now)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Merging replicates the user's table to every edge, so the failover
	// target can answer the request below.
	if _, err := c.MergeProfiles("u", now); err != nil {
		t.Fatal(err)
	}

	if err := c.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	ctx, root := tracer.StartTrace(context.Background(), "cluster.request")
	wantID, _ := tracing.ContextTraceID(ctx)
	if _, _, err := c.RequestCtx(ctx, "u", pos); err != nil {
		t.Fatal(err)
	}
	root.End()

	if got := reg.Counter("cluster_failovers_total", "").Value(); got != 1 {
		t.Fatalf("cluster_failovers_total = %d, want 1", got)
	}
	var rec *tracing.TraceRecord
	for _, r := range tracer.SlowestTraces(10) {
		if r.Name == "cluster.request" {
			rec = &r
			break
		}
	}
	if rec == nil {
		t.Fatal("cluster.request trace not in the ring")
	}
	if rec.TraceID != wantID {
		t.Errorf("ring trace ID %s, want the caller's %s", rec.TraceID, wantID)
	}
	stages := map[string]tracing.SpanRecord{}
	for _, sp := range rec.Spans {
		stages[sp.Stage] = sp
	}
	fo, ok := stages["failover"]
	if !ok {
		t.Fatalf("no failover span in %+v", rec.Spans)
	}
	apply, ok := stages["apply"]
	if !ok {
		t.Fatalf("no apply span in %+v", rec.Spans)
	}
	// The engine's apply span must be nested under the failover span, not
	// a sibling: the failed-over delivery is what invoked the engine.
	if apply.Parent != fo.SpanID {
		t.Errorf("apply span parent = %s, want the failover span %s", apply.Parent, fo.SpanID)
	}
	if spans := tracer.ActiveSpans(); spans != 0 {
		t.Errorf("active spans after traces ended = %d, want 0", spans)
	}
}
