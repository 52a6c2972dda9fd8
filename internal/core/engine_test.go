package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
)

func testConfig(t testing.TB) Config {
	t.Helper()
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: 1}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("missing mechanisms expected error")
	}
	cfg := testConfig(t)
	cfg.NomadicMechanism = nil
	if _, err := NewEngine(cfg); err == nil {
		t.Error("missing nomadic mechanism expected error")
	}
}

func TestEngineDefaults(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if cfg := e.Config(); cfg.ProfileWindow != 90*24*time.Hour {
		t.Errorf("window = %v", cfg.ProfileWindow)
	}
}

func TestEngineUnknownUser(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Request("ghost", geo.Point{}); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("Request unknown user: %v", err)
	}
	if _, err := e.TopLocations("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("TopLocations unknown user: %v", err)
	}
	if _, err := e.Table("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("Table unknown user: %v", err)
	}
	if err := e.RebuildProfile("ghost", time.Now()); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("RebuildProfile unknown user: %v", err)
	}
}

// feedUser reports `visits` check-ins at home and work plus a few nomadic
// ones, then forces a profile rebuild.
func feedUser(t *testing.T, e *Engine, userID string, home, work geo.Point) time.Time {
	t.Helper()
	rnd := randx.New(500, 500)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	at := base
	for i := 0; i < 300; i++ {
		at = at.Add(4 * time.Hour)
		var pos geo.Point
		switch {
		case i%3 == 0:
			pos = work.Add(rnd.GaussianPolar(12))
		case i%17 == 0:
			pos = geo.Point{X: rnd.Float64() * 50000, Y: rnd.Float64() * 50000}
		default:
			pos = home.Add(rnd.GaussianPolar(12))
		}
		if err := e.Report(userID, pos, at); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RebuildProfile(userID, at); err != nil {
		t.Fatal(err)
	}
	return at
}

func TestEngineProfileAndTable(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	home := geo.Point{X: 0, Y: 0}
	work := geo.Point{X: 8000, Y: 3000}
	feedUser(t, e, "alice", home, work)

	tops, err := e.TopLocations("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) < 2 {
		t.Fatalf("tops = %d, want >= 2", len(tops))
	}
	if d := tops[0].Loc.Dist(home); d > 10 {
		t.Errorf("top-1 %g m from home", d)
	}
	if d := tops[1].Loc.Dist(work); d > 10 {
		t.Errorf("top-2 %g m from work", d)
	}

	entries, err := e.Table("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("table entries = %d, want >= 2", len(entries))
	}
	for _, entry := range entries {
		if len(entry.Candidates) != 10 {
			t.Errorf("entry has %d candidates, want 10", len(entry.Candidates))
		}
	}
}

// TestEnginePermanentAnswers is the system-level defense property: every
// Request at a top location must be answered from the same permanent
// candidate set, so a longitudinal observer only ever sees n points.
func TestEnginePermanentAnswers(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	home := geo.Point{X: 0, Y: 0}
	work := geo.Point{X: 8000, Y: 3000}
	at := feedUser(t, e, "bob", home, work)

	entries, err := e.Table("bob")
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[geo.Point]bool)
	for _, entry := range entries {
		for _, c := range entry.Candidates {
			allowed[c] = true
		}
	}

	distinct := make(map[geo.Point]bool)
	for i := 0; i < 500; i++ {
		out, fromTable, err := e.Request("bob", home)
		if err != nil {
			t.Fatal(err)
		}
		if !fromTable {
			t.Fatal("home request not served from the permanent table")
		}
		if !allowed[out] {
			t.Fatalf("request returned %v outside the permanent candidate set", out)
		}
		distinct[out] = true
	}
	if len(distinct) > 10 {
		t.Errorf("observed %d distinct outputs for one top location, want <= 10", len(distinct))
	}

	// Even after further windows the answers stay inside the original set.
	rnd := randx.New(1, 99)
	for i := 0; i < 200; i++ {
		at = at.Add(time.Hour)
		if err := e.Report("bob", home.Add(rnd.GaussianPolar(12)), at); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RebuildProfile("bob", at); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		out, fromTable, err := e.Request("bob", home)
		if err != nil {
			t.Fatal(err)
		}
		if !fromTable || !allowed[out] {
			t.Fatalf("post-rebuild request escaped the permanent set (fromTable=%v)", fromTable)
		}
	}
}

func TestEngineNomadicRequests(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	feedUser(t, e, "carol", geo.Point{X: 0, Y: 0}, geo.Point{X: 8000, Y: 3000})

	// A location far from every top is nomadic: fresh noise every time.
	nowhere := geo.Point{X: -40000, Y: -40000}
	a, fromTable, err := e.Request("carol", nowhere)
	if err != nil {
		t.Fatal(err)
	}
	if fromTable {
		t.Error("nomadic request claimed to come from the table")
	}
	b, _, err := e.Request("carol", nowhere)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two nomadic obfuscations were identical (no fresh noise)")
	}
	// Noise magnitude sanity: planar Laplace with eps=ln4/200 stays within
	// a couple of kilometres practically always.
	if a.Dist(nowhere) > 5000 {
		t.Errorf("nomadic noise %g m implausibly large", a.Dist(nowhere))
	}
}

func TestEngineWindowRollover(t *testing.T) {
	cfg := testConfig(t)
	cfg.ProfileWindow = 24 * time.Hour
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	home := geo.Point{X: 100, Y: 100}
	rnd := randx.New(2, 3)
	base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	// 30 reports spread over 2 days: the window must roll automatically.
	for i := 0; i < 30; i++ {
		at := base.Add(time.Duration(i) * 2 * time.Hour)
		if err := e.Report("dave", home.Add(rnd.GaussianPolar(12)), at); err != nil {
			t.Fatal(err)
		}
	}
	tops, err := e.TopLocations("dave")
	if err != nil {
		t.Fatalf("window did not roll: %v", err)
	}
	if len(tops) == 0 || tops[0].Loc.Dist(home) > 20 {
		t.Errorf("rolled profile wrong: %+v", tops)
	}
}

func TestEngineNoProfileYet(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Report("erin", geo.Point{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopLocations("erin"); !errors.Is(err, ErrNoProfile) {
		t.Errorf("TopLocations before rebuild: %v", err)
	}
	// Requests still work: everything is nomadic.
	_, fromTable, err := e.Request("erin", geo.Point{})
	if err != nil {
		t.Fatal(err)
	}
	if fromTable {
		t.Error("request served from empty table")
	}
}

func TestEngineRebuildEmptyPendingIsNoop(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	feedUser(t, e, "frank", geo.Point{X: 0, Y: 0}, geo.Point{X: 8000, Y: 0})
	topsBefore, err := e.TopLocations("frank")
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with nothing pending: profile unchanged.
	if err := e.RebuildProfile("frank", time.Now()); err != nil {
		t.Fatal(err)
	}
	topsAfter, err := e.TopLocations("frank")
	if err != nil {
		t.Fatal(err)
	}
	if len(topsBefore) != len(topsAfter) {
		t.Errorf("empty rebuild changed profile: %d vs %d", len(topsBefore), len(topsAfter))
	}
}

func TestEngineFilterAds(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	truth := geo.Point{X: 0, Y: 0}
	ads := []geo.Point{
		{X: 100, Y: 0},      // in AOI
		{X: 4999, Y: 0},     // in AOI (default R = 5000)
		{X: 5100, Y: 0},     // out
		{X: 0, Y: -3000},    // in
		{X: 20000, Y: 2000}, // out
	}
	keep := e.FilterAds(truth, ads)
	want := []int{0, 1, 3}
	if len(keep) != len(want) {
		t.Fatalf("FilterAds = %v, want %v", keep, want)
	}
	for i := range want {
		if keep[i] != want[i] {
			t.Fatalf("FilterAds = %v, want %v", keep, want)
		}
	}
	if got := e.FilterAds(truth, nil); got != nil {
		t.Errorf("FilterAds(nil) = %v", got)
	}
}

func TestEngineUsersListing(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, id := range []string{"zoe", "adam", "mia"} {
		if err := e.Report(id, geo.Point{}, now); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Users()
	want := []string{"adam", "mia", "zoe"}
	if len(got) != 3 {
		t.Fatalf("Users = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Users = %v, want %v", got, want)
		}
	}
}

// TestEngineDeterministicPerSeed: two engines with identical config and
// inputs answer identically.
func TestEngineDeterministicPerSeed(t *testing.T) {
	run := func() []geo.Point {
		e, err := NewEngine(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		feedUser(t, e, "grace", geo.Point{X: 0, Y: 0}, geo.Point{X: 8000, Y: 0})
		var outs []geo.Point
		for i := 0; i < 20; i++ {
			out, _, err := e.Request("grace", geo.Point{X: 0, Y: 0})
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic engine output at %d", i)
		}
	}
}

// TestEngineConcurrentUsers: concurrent reports and requests across many
// users must be race-free (run with -race) and keep per-user integrity.
func TestEngineConcurrentUsers(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const users = 16
	var wg sync.WaitGroup
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			id := string(rune('a'+u)) + "-user"
			home := geo.Point{X: float64(u) * 10000, Y: 0}
			rnd := randx.New(uint64(u), 7)
			at := base
			for i := 0; i < 100; i++ {
				at = at.Add(time.Hour)
				if err := e.Report(id, home.Add(rnd.GaussianPolar(12)), at); err != nil {
					t.Error(err)
					return
				}
			}
			if err := e.RebuildProfile(id, at); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				if _, _, err := e.Request(id, home); err != nil {
					t.Error(err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	if got := len(e.Users()); got != users {
		t.Errorf("users = %d, want %d", got, users)
	}
}

func TestEngineNomadicBudget(t *testing.T) {
	cfg := testConfig(t)
	cfg.NomadicBudget = &geoind.Loss{Epsilon: 3, Delta: 0.5}
	cfg.NomadicReportEpsilon = 1
	cfg.NomadicReportDelta = 0.001
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Report("nomad", geo.Point{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	nowhere := geo.Point{X: 99999, Y: 99999}
	// Budget eps=3 at per-report eps=1 admits exactly 3 nomadic requests.
	for i := 0; i < 3; i++ {
		if _, _, err := e.Request("nomad", nowhere); err != nil {
			t.Fatalf("request %d rejected early: %v", i+1, err)
		}
	}
	if _, _, err := e.Request("nomad", nowhere); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("4th request: %v, want ErrBudgetExhausted", err)
	}
	loss, err := e.NomadicLoss("nomad")
	if err != nil {
		t.Fatal(err)
	}
	if loss.Epsilon != 3 {
		t.Errorf("cumulative loss = %+v, want eps 3", loss)
	}

	// Top-location requests remain unlimited: they are post-processing.
	feedUser(t, e, "homebody", geo.Point{X: 0, Y: 0}, geo.Point{X: 8000, Y: 0})
	for i := 0; i < 10; i++ {
		if _, fromTable, err := e.Request("homebody", geo.Point{X: 0, Y: 0}); err != nil || !fromTable {
			t.Fatalf("table request %d: fromTable=%v err=%v", i, fromTable, err)
		}
	}
}

func TestEngineNoBudgetNoLimit(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Report("free", geo.Point{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := e.Request("free", geo.Point{X: 5, Y: 5}); err != nil {
			t.Fatalf("unlimited request %d failed: %v", i, err)
		}
	}
	loss, err := e.NomadicLoss("free")
	if err != nil || loss.Epsilon != 0 {
		t.Errorf("no-budget loss = %+v, %v", loss, err)
	}
}

func BenchmarkEngineRequestTopLocation(b *testing.B) {
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		b.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	home := geo.Point{X: 0, Y: 0}
	rnd := randx.New(1, 1)
	at := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		at = at.Add(time.Hour)
		if err := e.Report("bench", home.Add(rnd.GaussianPolar(12)), at); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.RebuildProfile("bench", at); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Request("bench", home); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineRebuildAllMatchesSequential: the batch rebuild must leave
// every user with exactly the table a per-user sequential rebuild
// produces, at any parallelism level, because per-user randomness is
// derived from the user ID rather than shared.
func TestEngineRebuildAllMatchesSequential(t *testing.T) {
	build := func(parallelism int) *Engine {
		e, err := NewEngine(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		rnd := randx.New(77, 1)
		base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
		for u := 0; u < 12; u++ {
			id := fmt.Sprintf("user-%03d", u)
			home := geo.Point{X: rnd.Float64() * 40000, Y: rnd.Float64() * 40000}
			at := base
			for i := 0; i < 120; i++ {
				at = at.Add(6 * time.Hour)
				if err := e.Report(id, home.Add(rnd.GaussianPolar(12)), at); err != nil {
					t.Fatal(err)
				}
			}
		}
		now := base.AddDate(0, 2, 0)
		if parallelism == 0 {
			for _, id := range e.Users() {
				if err := e.RebuildProfile(id, now); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := e.RebuildAll(now, parallelism); err != nil {
			t.Fatal(err)
		}
		return e
	}

	want := build(0)
	for _, parallelism := range []int{1, 8} {
		got := build(parallelism)
		for _, id := range want.Users() {
			wantTable, err := want.Table(id)
			if err != nil {
				t.Fatal(err)
			}
			gotTable, err := got.Table(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTable, wantTable) {
				t.Fatalf("parallelism=%d: user %s table differs from sequential rebuild", parallelism, id)
			}
			wantTops, err := want.TopLocations(id)
			if err != nil {
				t.Fatal(err)
			}
			gotTops, err := got.TopLocations(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTops, wantTops) {
				t.Fatalf("parallelism=%d: user %s tops differ from sequential rebuild", parallelism, id)
			}
		}
	}
}

func TestEngineRebuildAllEmptyEngine(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RebuildAll(time.Now(), 4); err != nil {
		t.Fatal(err)
	}
}
