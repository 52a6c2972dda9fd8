package edgecluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/wal"
)

// TestDeltaReplicationScalesWithChange is the regression for the
// snapshot-replication cost bug: replicated bytes per merge round must
// scale with the entries the round ADDED, not with the user's total
// table size. Each phase grows every user's table by about one top; the
// delta frames must stay flat while the would-be snapshot cost keeps
// growing with the accumulated table.
func TestDeltaReplicationScalesWithChange(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	const users = 6
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)

	// Jitter is drawn from a per-phase stream so a phase can be replayed
	// point-for-point: identical visits yield identical η-tops, which is
	// what makes the zero-change round below truly zero-change.
	visit := func(rnd *randx.Rand, user int, pos geo.Point, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			at = at.Add(time.Hour)
			if _, err := c.Report(fmt.Sprintf("u%02d", user), pos.Add(rnd.GaussianPolar(10)), at); err != nil {
				t.Fatal(err)
			}
		}
	}
	phaseRnd := func(phase int) *randx.Rand { return randx.New(11, 0xDE17A+uint64(phase)) }
	mergeAll := func() (delta, snapshot, entries int) {
		t.Helper()
		for u := 0; u < users; u++ {
			_, stats, err := c.MergeProfilesStats(fmt.Sprintf("u%02d", u), at)
			if err != nil {
				t.Fatalf("merge u%02d: %v", u, err)
			}
			delta += stats.DeltaBytes
			snapshot += stats.SnapshotBytes
			entries += stats.DeltaEntries
		}
		return delta, snapshot, entries
	}
	spot := func(u, phase int) geo.Point {
		return geo.Point{X: float64(u)*700 + float64(phase)*4000, Y: float64(u) * 350}
	}

	// Phase 0: tables are born. The replicas hold nothing, so delta and
	// snapshot coincide (the delta IS the full table).
	rnd := phaseRnd(0)
	for u := 0; u < users; u++ {
		visit(rnd, u, spot(u, 0), 20)
	}
	d0, s0, e0 := mergeAll()
	if e0 == 0 {
		t.Fatal("phase 0 shipped no entries — merges installed nothing")
	}
	if d0 != s0 {
		t.Errorf("phase 0: fresh replicas should cost snapshot == delta, got delta=%d snapshot=%d", d0, s0)
	}

	// Phases 1..3: each user's profile gains one new top per phase. The
	// snapshot cost grows with the whole accumulated table; the delta
	// cost must keep paying only for the new entries.
	var dPrev int
	for phase := 1; phase <= 3; phase++ {
		rnd = phaseRnd(phase)
		for u := 0; u < users; u++ {
			visit(rnd, u, spot(u, phase), 20)
		}
		d, s, e := mergeAll()
		if e == 0 {
			t.Fatalf("phase %d shipped no entries", phase)
		}
		if e > e0 {
			t.Errorf("phase %d shipped %d entries > the %d a whole newborn table cost", phase, e, e0)
		}
		if s <= d {
			t.Errorf("phase %d: snapshot bytes %d not above delta bytes %d despite accumulated tables", phase, s, d)
		}
		if phase == 3 {
			if float64(s) < 2*float64(d) {
				t.Errorf("phase 3: snapshot/delta ratio %.2f < 2 — deltas not proportional to change (delta=%d snapshot=%d)",
					float64(s)/float64(d), d, s)
			}
		}
		dPrev = d
	}

	// A round that adds NOTHING — phase 3 replayed point-for-point, so
	// the η-tops land exactly where the table already protects them —
	// ships zero entries: the sharpest form of "bytes follow change".
	rnd = phaseRnd(3)
	for u := 0; u < users; u++ {
		visit(rnd, u, spot(u, 3), 20)
	}
	d, s, e := mergeAll()
	if e != 0 {
		t.Errorf("unchanged-tops round shipped %d entries, want 0", e)
	}
	if d >= s {
		t.Errorf("unchanged-tops round: delta %d >= snapshot %d", d, s)
	}
	if d >= dPrev {
		t.Errorf("unchanged-tops round delta bytes %d >= growing-phase delta %d", d, dPrev)
	}

	// The cumulative accounting agrees with telemetry-visible stats.
	repl := c.ReplStats()
	if repl.DeltaBytes >= repl.SnapshotBytes {
		t.Errorf("cumulative: delta %d >= snapshot %d", repl.DeltaBytes, repl.SnapshotBytes)
	}
	if repl.Fallbacks != 0 {
		t.Errorf("healthy cluster took %d snapshot fallbacks", repl.Fallbacks)
	}
}

// TestDeltaBytesPerChangedUserFlat pins the other axis of "replicated
// bytes follow change": with every table warmed by one merged top, a
// round that moves k users to a fresh spot must cost about the same
// delta bytes per changed user whether k is 1 or every user, and the
// deltas must undercut the snapshots the same applies would have sent.
func TestDeltaBytesPerChangedUserFlat(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	const users = 8
	rnd := randx.New(1, 0x5EEB)
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	userID := func(u int) string { return fmt.Sprintf("u%02d", u) }
	// Each phase moves a user far past the table's identity radius, so
	// one merged round adds about one table entry.
	spot := func(u, phase int) geo.Point {
		return geo.Point{X: float64(u) * 600, Y: float64(phase) * 900}
	}
	// mergeRound moves users 0..k-1 to their phase spot, merges them, and
	// returns the cluster's delta and would-be snapshot bytes for it.
	mergeRound := func(k, phase int) (delta, snapshot int) {
		t.Helper()
		before := c.ReplStats()
		for u := 0; u < k; u++ {
			for i := 0; i < 20; i++ {
				at = at.Add(time.Hour)
				if _, err := c.Report(userID(u), spot(u, phase).Add(rnd.GaussianPolar(10)), at); err != nil {
					t.Fatal(err)
				}
			}
		}
		for u := 0; u < k; u++ {
			if _, err := c.MergeProfiles(userID(u), at); err != nil {
				t.Fatalf("merge %s: %v", userID(u), err)
			}
		}
		after := c.ReplStats()
		return after.DeltaBytes - before.DeltaBytes, after.SnapshotBytes - before.SnapshotBytes
	}

	mergeRound(users, 0) // tables are born: delta == snapshot, not measured

	var totalDelta, totalSnapshot int
	minPer, maxPer := math.Inf(1), 0.0
	for phase, k := range []int{1, 2, 4, 8} {
		delta, snapshot := mergeRound(k, phase+1)
		per := float64(delta) / float64(k)
		t.Logf("changed_users=%d delta_bytes=%d snapshot_bytes=%d per_changed_user=%.0f", k, delta, snapshot, per)
		minPer, maxPer = math.Min(minPer, per), math.Max(maxPer, per)
		totalDelta += delta
		totalSnapshot += snapshot
	}
	if maxPer > 2*minPer {
		t.Errorf("delta bytes per changed user span %.0f..%.0f, want within 2x", minPer, maxPer)
	}
	if totalDelta == 0 || totalDelta >= totalSnapshot {
		t.Errorf("delta replication did not beat snapshots: delta=%d snapshot=%d", totalDelta, totalSnapshot)
	}
}

// TestLagMapCompaction is the regression for the applied-map leak: the
// per-node replication bookkeeping must hold entries only for users a
// node is actually behind on, so long-lived healthy clusters no longer
// grow a map entry per user per node forever.
func TestLagMapCompaction(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	rnd := randx.New(5, 0x1A6)
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	const users = 8
	mergeAll := func() {
		t.Helper()
		for u := 0; u < users; u++ {
			if _, err := c.MergeProfiles(fmt.Sprintf("u%02d", u), at); err != nil {
				t.Fatalf("merge u%02d: %v", u, err)
			}
		}
	}
	visitAll := func() {
		t.Helper()
		for u := 0; u < users; u++ {
			for i := 0; i < 15; i++ {
				at = at.Add(time.Hour)
				pos := geo.Point{X: float64(u) * 600, Y: 200}.Add(rnd.GaussianPolar(10))
				if _, err := c.Report(fmt.Sprintf("u%02d", u), pos, at); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Healthy rounds leave every lag map empty: nobody is behind.
	visitAll()
	mergeAll()
	for i := range c.Nodes() {
		if got := c.NodeLag(i); got != 0 {
			t.Errorf("healthy cluster: edge %d lag map holds %d entries, want 0", i, got)
		}
	}

	// A down node accrues exactly one entry per user merged without it…
	if err := c.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	visitAll()
	mergeAll()
	if got := c.NodeLag(2); got != users {
		t.Errorf("down edge lag = %d, want %d", got, users)
	}
	for _, i := range []int{0, 1} {
		if got := c.NodeLag(i); got != 0 {
			t.Errorf("live edge %d lag = %d, want 0", i, got)
		}
	}

	// …and revival compacts them away again.
	if err := c.MarkUp(2); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeLag(2); got != 0 {
		t.Errorf("revived edge lag = %d, want 0", got)
	}
	fp0 := fingerprint(t, c.Nodes()[0], "u00")
	if fp := fingerprint(t, c.Nodes()[2], "u00"); fp != fp0 {
		t.Errorf("revived edge fingerprint %016x != obfuscator %016x", fp, fp0)
	}

	// A replica that crashes mid-apply keeps its entry until a
	// Reconcile retries it.
	boom := fmt.Errorf("injected")
	c.Nodes()[1].SetFailApply(func(string) error { return boom })
	visitAll()
	mergeAll()
	if got := c.NodeLag(1); got != users {
		t.Errorf("failing replica lag = %d, want %d", got, users)
	}
	c.Nodes()[1].SetFailApply(nil)
	if err := c.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeLag(1); got != 0 {
		t.Errorf("reconciled replica lag = %d, want 0", got)
	}
}

// TestRestartNodeSkipsLocallyHeldRounds is the regression for the
// restart-replays-everything bug: a node whose own WAL already holds
// every journal round must ship ZERO replication traffic on restart,
// and a node that missed rounds while down must receive only the
// missing suffix, not the whole journal.
func TestRestartNodeSkipsLocallyHeldRounds(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	n0 := c.Nodes()[0]
	if _, err := n0.Engine.Recover(st); err != nil {
		t.Fatal(err)
	}

	rnd := randx.New(21, 0xFEED)
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	users := []string{"alpha", "beta", "gamma"}
	visit := func(user string, pos geo.Point, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			at = at.Add(time.Hour)
			if _, err := c.Report(user, pos.Add(rnd.GaussianPolar(10)), at); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, u := range users {
		visit(u, geo.Point{X: float64(i) * 800, Y: 100}, 20)
		if _, err := c.MergeProfiles(u, at); err != nil {
			t.Fatal(err)
		}
	}

	// Restart with a store holding everything: the audit must prove each
	// user current by fingerprint and ship nothing at all.
	before := c.ReplStats()
	st2, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(0, st2); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	after := c.ReplStats()
	if after.Entries != before.Entries {
		t.Errorf("restart of a fully recovered node shipped %d entries, want 0", after.Entries-before.Entries)
	}
	if after.DeltaBytes != before.DeltaBytes {
		t.Errorf("restart of a fully recovered node shipped %d bytes, want 0", after.DeltaBytes-before.DeltaBytes)
	}

	// Crash again, merge one round it misses, restart: only that round's
	// new entries travel — not the three users' whole tables.
	if err := c.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	visit("alpha", geo.Point{X: 6_000, Y: 100}, 20)
	_, missedStats, err := c.MergeProfilesStats("alpha", at)
	if err != nil {
		t.Fatal(err)
	}
	if missedStats.SkippedDown == 0 {
		t.Fatal("merge did not run degraded — test setup broken")
	}

	before = c.ReplStats()
	st3, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(0, st3); err != nil {
		t.Fatalf("second RestartNode: %v", err)
	}
	after = c.ReplStats()
	shipped := after.Entries - before.Entries

	// The revived node needed only alpha's new entries. Its own WAL held
	// everything else, including alpha's pre-crash table.
	aliveTable, err := c.Nodes()[1].Engine.Table("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if shipped == 0 {
		t.Error("restart shipped nothing despite a missed round")
	}
	if shipped >= len(aliveTable) {
		t.Errorf("restart shipped %d entries — at least alpha's whole table (%d); wanted only the missed suffix", shipped, len(aliveTable))
	}
	if after.Fallbacks != before.Fallbacks {
		t.Errorf("restart took %d snapshot fallbacks; recovered state should prove its prefix", after.Fallbacks-before.Fallbacks)
	}
	fpAlive := fingerprint(t, c.Nodes()[1], "alpha")
	if fp := fingerprint(t, c.Nodes()[0], "alpha"); fp != fpAlive {
		t.Errorf("restarted node fingerprint %016x != peer %016x", fp, fpAlive)
	}
}

// TestSnapshotFallbackOnDivergence: a replica whose table is NOT a
// prefix of the obfuscator's (foreign entries, e.g. a corrupt or
// misattached store) fails the content proof and falls back to the full
// snapshot instead of shipping a suffix that would silently misapply.
// The snapshot cannot remove the foreign entry, so the replica does not
// land on the table the delta names: the apply fails with ErrDiverged,
// the round counts a replica error and is degraded, and the node keeps
// its lag entry — Reconcile cannot clear it, and the node cannot
// obfuscate a round while it stays behind.
func TestSnapshotFallbackOnDivergence(t *testing.T) {
	c, err := New(testClusterConfig(t, overlappingEdges()))
	if err != nil {
		t.Fatal(err)
	}
	rnd := randx.New(8, 0xFA11)
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		at = at.Add(time.Hour)
		if _, err := c.Report("u", geo.Point{X: 100, Y: 100}.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}
	// Poison replica 1 with an entry the obfuscator never produced.
	foreign := []core.TableEntry{{
		Top:        geo.Point{X: 40_000, Y: 40_000},
		Candidates: []geo.Point{{X: 40_001, Y: 40_002}},
		CreatedAt:  at,
	}}
	if err := c.Nodes()[1].Engine.ImportTable("u", core.PackTable(foreign).AppendSuffix(nil, 0)); err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.MergeProfilesStats("u", at)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ReplStats().Fallbacks; got == 0 {
		t.Error("diverged replica did not trigger a snapshot fallback")
	}
	if stats.ReplicaErrors != 1 || !stats.Degraded {
		t.Errorf("merge stats ReplicaErrors=%d Degraded=%v, want 1 and true", stats.ReplicaErrors, stats.Degraded)
	}
	if got := c.NodeLag(1); got != 1 {
		t.Errorf("diverged replica lag = %d, want 1", got)
	}
	fp0 := fingerprint(t, c.Nodes()[0], "u")
	if fp := fingerprint(t, c.Nodes()[2], "u"); fp != fp0 {
		t.Errorf("healthy replica fingerprint %016x != obfuscator %016x", fp, fp0)
	}
	if fp := fingerprint(t, c.Nodes()[1], "u"); fp == fp0 {
		t.Error("diverged replica matches the obfuscator despite its foreign entry")
	}
	if err := c.Reconcile(); !errors.Is(err, ErrDiverged) {
		t.Errorf("Reconcile = %v, want ErrDiverged", err)
	}
	if got := c.NodeLag(1); got != 1 {
		t.Errorf("diverged replica lag after Reconcile = %d, want 1", got)
	}
	// With edge 0 down the diverged edge would obfuscate the next round;
	// its catch-up fails first, so the merge fails.
	if err := c.MarkDown(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MergeProfiles("u", at.Add(time.Hour)); !errors.Is(err, ErrDiverged) {
		t.Errorf("merge obfuscated by the diverged edge = %v, want ErrDiverged", err)
	}
}

// TestChaosDuringConcurrentMerges kills and auto-revives an edge WHILE
// merge rounds, reports, and requests are running concurrently, at shard
// counts {1,8}. All health transitions are driven by the failure
// detector — the test never calls MarkDown/MarkUp. After the dust
// settles, every live edge must hold byte-identical tables.
func TestChaosDuringConcurrentMerges(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testClusterConfig(t, overlappingEdges())
			cfg.Engine.Shards = shards
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			det := c.NewDetector(DetectorConfig{Probes: 3, SuspectAfter: 1, ConfirmAfter: 1, Seed: 42})
			const users = 5
			userID := func(u int) string { return fmt.Sprintf("u%02d", u) }

			// Seed every user with a merged profile before the churn starts
			// so the final byte-identity sweep always has tables to compare.
			seedRnd := randx.New(42, 0x5EED)
			seedAt := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
			for u := 0; u < users; u++ {
				for i := 0; i < 15; i++ {
					seedAt = seedAt.Add(time.Hour)
					pos := geo.Point{X: float64(u) * 500, Y: 300}.Add(seedRnd.GaussianPolar(10))
					if _, err := c.Report(userID(u), pos, seedAt); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := c.MergeProfiles(userID(u), seedAt); err != nil {
					t.Fatal(err)
				}
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			// Traffic: three workers report and request under churn. Routing
			// errors are acceptable mid-kill (ErrNoLiveEdge windows); the
			// engine must simply never corrupt state (-race guards the rest).
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rnd := randx.New(77, uint64(w)+1)
					at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						u := userID(i % users)
						pos := geo.Point{X: float64(i%users) * 500, Y: 300}.Add(rnd.GaussianPolar(10))
						at = at.Add(time.Minute)
						_, _ = c.Report(u, pos, at)
						_, _, _ = c.Request(u, pos)
						// Pace the firehose: unthrottled workers grow pending
						// windows faster than merges drain them, and the test
						// is about churn under failure, not about backlog.
						time.Sleep(200 * time.Microsecond)
					}
				}(w)
			}
			// Merges: one goroutine merges users round-robin the whole time.
			wg.Add(1)
			go func() {
				defer wg.Done()
				at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					at = at.Add(time.Minute)
					_, _, _ = c.MergeProfilesStats(userID(i%users), at)
					time.Sleep(100 * time.Microsecond)
				}
			}()

			// Chaos, detector-driven: kill an edge, let probes confirm it
			// down, revive the endpoint, let probes bring it back.
			var downs, revives int
			for cycle := 0; cycle < 3; cycle++ {
				victim := 1 + cycle%2
				time.Sleep(5 * time.Millisecond) // let traffic and merges interleave
				if err := c.SetReachable(victim, false); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10 && !c.Nodes()[victim].Down(); i++ {
					time.Sleep(time.Millisecond)
					trs, _ := det.Tick()
					for _, tr := range trs {
						if tr.To == HealthDown {
							downs++
						}
					}
				}
				if !c.Nodes()[victim].Down() {
					t.Fatalf("cycle %d: detector never confirmed edge %d down", cycle, victim)
				}
				time.Sleep(5 * time.Millisecond) // degraded window under load
				if err := c.SetReachable(victim, true); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 10 && c.Nodes()[victim].Down(); i++ {
					time.Sleep(time.Millisecond)
					trs, err := det.Tick()
					if err != nil {
						t.Logf("revival tick: %v (retried by later ticks/reconcile)", err)
					}
					for _, tr := range trs {
						if tr.From == HealthDown && tr.To == HealthAlive {
							revives++
						}
					}
				}
				if c.Nodes()[victim].Down() {
					t.Fatalf("cycle %d: detector never revived edge %d", cycle, victim)
				}
			}
			close(stop)
			wg.Wait()

			if downs == 0 || revives == 0 {
				t.Fatalf("detector transitions: %d downs, %d revives; want both > 0", downs, revives)
			}

			// Quiesce: retry any replica that failed an apply mid-kill, then
			// run one clean merge per user so every edge sits on the head.
			if err := c.Reconcile(); err != nil {
				t.Fatalf("reconcile: %v", err)
			}
			at := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
			for u := 0; u < users; u++ {
				if _, err := c.MergeProfiles(userID(u), at); err != nil {
					t.Fatalf("final merge %s: %v", userID(u), err)
				}
			}
			for u := 0; u < users; u++ {
				fp0 := fingerprint(t, c.Nodes()[0], userID(u))
				for _, n := range c.Nodes()[1:] {
					if fp := fingerprint(t, n, userID(u)); fp != fp0 {
						t.Errorf("%s: %s fingerprint %016x != edge-00 %016x", userID(u), n.ID, fp, fp0)
					}
				}
			}
			for i := range c.Nodes() {
				if got := c.NodeLag(i); got != 0 {
					t.Errorf("edge %d still lagging %d users after reconcile", i, got)
				}
			}
		})
	}
}

// FuzzDeltaCatchUpEquivalence drives random visit/merge/outage
// schedules and pins the delta ≡ snapshot semantics end to end: a
// replica that converged through content-addressed deltas (including
// downtime catch-ups) must be byte-identical to a fresh engine handed
// the obfuscator's full table in one snapshot import. A phase may
// revisit the previous phase's spot, so a round can add no entry and
// ship an empty suffix, and a table can end with one entry.
func FuzzDeltaCatchUpEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := testClusterConfig(t, overlappingEdges())
		cfg.Seed = seed | 1
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rnd := randx.New(seed, 0xE07)
		at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
		const user = "fz"
		var base geo.Point
		for phase := 0; phase < 3; phase++ {
			if rnd.IntN(2) == 0 {
				_ = c.MarkDown(1 + rnd.IntN(2))
			}
			if phase == 0 || rnd.IntN(3) > 0 {
				base = geo.Point{X: float64(rnd.IntN(10_000)) - 5_000, Y: float64(rnd.IntN(10_000)) - 5_000}
			}
			for i := 0; i < 12+rnd.IntN(10); i++ {
				at = at.Add(time.Hour)
				if _, err := c.Report(user, base.Add(rnd.GaussianPolar(10)), at); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.MergeProfiles(user, at); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 3; i++ {
				if c.Nodes()[i].Down() {
					if err := c.MarkUp(i); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := c.Reconcile(); err != nil {
			t.Fatal(err)
		}
		fp0 := fingerprint(t, c.Nodes()[0], user)
		for _, n := range c.Nodes()[1:] {
			if fp := fingerprint(t, n, user); fp != fp0 {
				t.Fatalf("delta-converged %s fingerprint %016x != obfuscator %016x", n.ID, fp, fp0)
			}
		}
		// Snapshot equivalence: one full import into a cold engine lands
		// on the same digest the delta path reached.
		entries, err := c.Nodes()[0].Engine.Table(user)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.NewEngine(c.Nodes()[0].Engine.Config())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ImportTable(user, core.PackTable(entries).AppendSuffix(nil, 0)); err != nil {
			t.Fatal(err)
		}
		snapFP, err := fresh.TableFingerprint(user)
		if err != nil {
			t.Fatal(err)
		}
		if snapFP != fp0 {
			t.Fatalf("snapshot import fingerprint %016x != delta-replicated %016x", snapFP, fp0)
		}
	})
}
