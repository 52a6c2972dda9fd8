package edgecluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/telemetry"
)

// tickN runs n detector ticks and returns all transitions, failing the
// test on revival errors.
func tickN(t *testing.T, d *Detector, n int) []Transition {
	t.Helper()
	var all []Transition
	for i := 0; i < n; i++ {
		trs, err := d.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		all = append(all, trs...)
	}
	return all
}

// TestDetectorLifecycle walks one edge through the full
// alive → suspect → down → alive cycle and pins the exact tick each
// threshold fires at, plus the side effects: MarkDown when confirmed,
// MarkUp (journal catch-up, lag drained) when probes answer again.
func TestDetectorLifecycle(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	// Probes=3 over 3 edges: every peer is probed every tick, so the
	// suspect/confirm thresholds fire on exact tick counts.
	d := c.NewDetector(DetectorConfig{Probes: 3, SuspectAfter: 2, ConfirmAfter: 2, Seed: 9})

	rnd := randx.New(3, 0xCAFE)
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		at = at.Add(time.Hour)
		if _, err := c.Report("u", geo.Point{X: 500, Y: 500}.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.MergeProfiles("u", at); err != nil {
		t.Fatal(err)
	}

	if err := c.SetReachable(1, false); err != nil {
		t.Fatal(err)
	}
	if trs := tickN(t, d, 1); len(trs) != 0 {
		t.Fatalf("tick 1: unexpected transitions %v (one failed probe must not suspect yet)", trs)
	}
	trs := tickN(t, d, 1)
	want := []Transition{{Edge: 1, Node: c.Nodes()[1].ID, From: HealthAlive, To: HealthSuspect}}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("tick 2 transitions = %v, want %v", trs, want)
	}
	if c.Nodes()[1].Down() {
		t.Fatal("suspect edge already marked down — confirmation threshold ignored")
	}
	if trs := tickN(t, d, 1); len(trs) != 0 {
		t.Fatalf("tick 3: unexpected transitions %v", trs)
	}
	trs = tickN(t, d, 1)
	want = []Transition{{Edge: 1, Node: c.Nodes()[1].ID, From: HealthSuspect, To: HealthDown}}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("tick 4 transitions = %v, want %v", trs, want)
	}
	if !c.Nodes()[1].Down() {
		t.Fatal("confirmed edge not marked down")
	}
	if got := d.Health(1); got != HealthDown {
		t.Fatalf("Health(1) = %v, want down", got)
	}

	// Merge a round past it so revival has something to catch up.
	for i := 0; i < 15; i++ {
		at = at.Add(time.Hour)
		if _, err := c.Report("u", geo.Point{X: 5_500, Y: 500}.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.MergeProfiles("u", at); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeLag(1); got == 0 {
		t.Fatal("down edge accrued no lag — revival catch-up untested")
	}

	if err := c.SetReachable(1, true); err != nil {
		t.Fatal(err)
	}
	trs = tickN(t, d, 1)
	want = []Transition{{Edge: 1, Node: c.Nodes()[1].ID, From: HealthDown, To: HealthAlive}}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("revival transitions = %v, want %v", trs, want)
	}
	if c.Nodes()[1].Down() {
		t.Fatal("revived edge still marked down")
	}
	if got := c.NodeLag(1); got != 0 {
		t.Fatalf("revived edge still lagging %d users", got)
	}
	fp0 := fingerprint(t, c.Nodes()[0], "u")
	if fp := fingerprint(t, c.Nodes()[1], "u"); fp != fp0 {
		t.Fatalf("revived edge fingerprint %016x != obfuscator %016x", fp, fp0)
	}
}

// TestDetectorDeterministicSchedule: with a sparse probe budget the
// pseudo-random target choice matters, and two detectors built from the
// same seed over identically scripted outages must observe the exact
// same transition sequence — the determinism contract chaos replays
// rely on.
func TestDetectorDeterministicSchedule(t *testing.T) {
	run := func() []Transition {
		c, err := New(testClusterConfig(t, overlappingEdges()))
		if err != nil {
			t.Fatal(err)
		}
		d := c.NewDetector(DetectorConfig{Probes: 1, SuspectAfter: 1, ConfirmAfter: 1, Seed: 31})
		var all []Transition
		script := []struct {
			edge      int
			reachable bool
		}{{1, false}, {-1, false}, {2, false}, {1, true}, {-1, false}, {2, true}, {-1, false}}
		for _, step := range script {
			if step.edge >= 0 {
				if err := c.SetReachable(step.edge, step.reachable); err != nil {
					t.Fatal(err)
				}
			}
			all = append(all, tickN(t, d, 3)...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("script produced no transitions — schedule assertions vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, same script, different transitions:\n  %v\nvs\n  %v", a, b)
	}
}

// TestDetectorAdoptsOperatorMarkDown: an operator MarkDown is adopted
// as detector state (so an unreachable node is not re-counted through
// suspicion), and once probes answer again the detector — not the
// operator — revives it.
func TestDetectorAdoptsOperatorMarkDown(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	d := c.NewDetector(DetectorConfig{Probes: 3, SuspectAfter: 2, ConfirmAfter: 2, Seed: 13})

	if err := c.SetReachable(2, false); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	if trs := tickN(t, d, 1); len(trs) != 0 {
		t.Fatalf("adoption tick produced transitions %v, want none", trs)
	}
	if got := d.Health(2); got != HealthDown {
		t.Fatalf("Health(2) = %v after operator MarkDown, want down", got)
	}

	// The endpoint comes back: the next tick revives it without any
	// operator MarkUp.
	if err := c.SetReachable(2, true); err != nil {
		t.Fatal(err)
	}
	trs := tickN(t, d, 1)
	want := []Transition{{Edge: 2, Node: c.Nodes()[2].ID, From: HealthDown, To: HealthAlive}}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("revival transitions = %v, want %v", trs, want)
	}
	if c.Nodes()[2].Down() {
		t.Fatal("edge still down after detector revival")
	}

	// Corollary of single authority: downing a node whose endpoint still
	// answers is overruled on the next tick.
	if err := c.MarkDown(1); err != nil {
		t.Fatal(err)
	}
	trs = tickN(t, d, 1)
	want = []Transition{{Edge: 1, Node: c.Nodes()[1].ID, From: HealthDown, To: HealthAlive}}
	if !reflect.DeepEqual(trs, want) {
		t.Fatalf("overrule transitions = %v, want %v", trs, want)
	}
	if c.Nodes()[1].Down() {
		t.Fatal("reachable edge left down despite answering probes")
	}
}

// TestDetectorTransientBlip: an outage shorter than SuspectAfter ticks
// never surfaces — no suspicion, no MarkDown, no transitions. Failed
// tick counts reset the moment a probe answers.
func TestDetectorTransientBlip(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	d := c.NewDetector(DetectorConfig{Probes: 3, SuspectAfter: 2, ConfirmAfter: 1, Seed: 17})

	for round := 0; round < 4; round++ {
		if err := c.SetReachable(1, false); err != nil {
			t.Fatal(err)
		}
		if trs := tickN(t, d, 1); len(trs) != 0 {
			t.Fatalf("round %d: blip produced transitions %v", round, trs)
		}
		if err := c.SetReachable(1, true); err != nil {
			t.Fatal(err)
		}
		if trs := tickN(t, d, 2); len(trs) != 0 {
			t.Fatalf("round %d: recovery produced transitions %v", round, trs)
		}
	}
	if c.Nodes()[1].Down() {
		t.Fatal("edge marked down by repeated sub-threshold blips")
	}
	if got := d.Health(1); got != HealthAlive {
		t.Fatalf("Health(1) = %v, want alive", got)
	}
}

// TestSuspectGaugeExact pins cluster_nodes_suspect to the detector's
// states through the two sequences a transition-counted gauge got
// wrong: an edge marked down by hand while suspected, which the next
// tick adopts as down, and a registry instrumented while an edge is
// already suspected.
func TestSuspectGaugeExact(t *testing.T) {
	// run suspects edge 1, instrumenting a registry before or after, then
	// lets downEdge1 take it down and the next answered probe revive it,
	// checking the gauge at each step.
	run := func(t *testing.T, instrumentLate bool, downEdge1 func(*Cluster, *Detector)) {
		c, err := New(testClusterConfig(t, overlappingEdges()))
		if err != nil {
			t.Fatal(err)
		}
		d := c.NewDetector(DetectorConfig{Probes: 3, SuspectAfter: 2, ConfirmAfter: 2, Seed: 21})
		reg := telemetry.NewRegistry()
		if !instrumentLate {
			c.Instrument(reg)
		}
		if err := c.SetReachable(1, false); err != nil {
			t.Fatal(err)
		}
		tickN(t, d, 2)
		if instrumentLate {
			c.Instrument(reg)
		}
		want := []NodeHealth{HealthSuspect, HealthDown, HealthAlive}
		for step, wantSuspect := range []int{1, 0, 0} {
			switch step {
			case 1:
				downEdge1(c, d)
			case 2:
				if err := c.SetReachable(1, true); err != nil {
					t.Fatal(err)
				}
				tickN(t, d, 1)
			}
			if got := d.Health(1); got != want[step] {
				t.Fatalf("step %d: Health(1) = %v, want %v", step, got, want[step])
			}
			if got := gaugeValue(t, reg, "cluster_nodes_suspect"); got != wantSuspect {
				t.Fatalf("step %d: cluster_nodes_suspect = %d with edge 1 %v, want %d", step, got, want[step], wantSuspect)
			}
		}
	}
	t.Run("markdown_while_suspect", func(t *testing.T) {
		run(t, false, func(c *Cluster, d *Detector) {
			if err := c.MarkDown(1); err != nil {
				t.Fatal(err)
			}
			tickN(t, d, 1) // adopts the MarkDown
		})
	})
	t.Run("instrumented_while_suspect", func(t *testing.T) {
		run(t, true, func(c *Cluster, d *Detector) {
			tickN(t, d, 2) // confirms the suspicion
		})
	})
}

// TestSuspectGaugeConcurrentScrape scrapes cluster_nodes_suspect while
// a detector ticks through outages and another detector is built: the
// gauge takes only each detector's lock, so neither the race detector
// nor a lock-order deadlock (Tick holds a detector's lock while MarkDown
// and MarkUp take the cluster's) may fire.
func TestSuspectGaugeConcurrentScrape(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	d := c.NewDetector(DetectorConfig{Probes: 3, SuspectAfter: 1, ConfirmAfter: 1, Seed: 23})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := c.SetReachable(1, i%6 >= 3); err != nil {
				t.Error(err)
				return
			}
			if _, err := d.Tick(); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				c.NewDetector(DetectorConfig{Seed: uint64(i + 1)})
			}
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if got := gaugeValue(t, reg, "cluster_nodes_suspect"); got < 0 || got > 1 {
			t.Fatalf("cluster_nodes_suspect = %d with one edge failing", got)
		}
	}
}
