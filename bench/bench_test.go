package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/randx"
)

// TestMain lets the test binary serve as its own host-probe child, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if probeChildMode() {
		os.Exit(runProbeChild(os.Stdout))
	}
	os.Exit(m.Run())
}

// bruteQuantile is the nearest-rank definition computed the slow way,
// on unsorted samples: the smallest sample x with #{s ≤ x} ≥ q·n, and how
// many samples lie beyond its rank ⌈q·n⌉.
func bruteQuantile(samples []time.Duration, q float64) (time.Duration, int) {
	n := len(samples)
	best := time.Duration(math.MaxInt64)
	for _, x := range samples {
		atMost := 0
		for _, s := range samples {
			if s <= x {
				atMost++
			}
		}
		if float64(atMost) >= q*float64(n) && x < best {
			best = x
		}
	}
	return best, n - int(math.Ceil(q*float64(n)))
}

func TestQuantileMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 10, 11, 50, 99, 100, 101, 400, 1009, 1500} {
		samples := make([]time.Duration, n)
		for i := range samples {
			// Few distinct values, so ties are exercised.
			samples[i] = time.Duration(rnd.IntN(n/3 + 1))
		}
		sorted := sortDurations(append([]time.Duration(nil), samples...))
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
			want, tail := bruteQuantile(samples, q)
			got, ok := quantile(sorted, q)
			if ok != (tail >= minTail) {
				t.Fatalf("n=%d q=%g: ok=%v with %d samples beyond the rank", n, q, ok, tail)
			}
			if ok && got != want {
				t.Fatalf("n=%d q=%g: quantile=%v, brute force=%v", n, q, got, want)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles(v, n=4) and statistics.median(v).
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0, 2.2, 8.8, 7.1, 6.3, 0.5}, 1.9500000000000002, 4.7, 7.5249999999999995},
		{[]float64{2.0, 1.0}, 0.75, 1.5, 2.25},
		{[]float64{5.0, 1.0, 3.0}, 1.0, 3.0, 5.0},
	} {
		q1, med, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 100.5, 99.5}
	for _, c := range []struct {
		m    metricDef
		b    []float64
		want string
	}{
		{lower, []float64{104, 105, 103, 104, 104.5, 103.5}, "agree"},
		{lower, []float64{120, 121, 119, 120, 120.5, 119.5}, "worse"},
		{higher, []float64{120, 121, 119, 120, 120.5, 119.5}, "agree"},
		{higher, []float64{80, 81, 79, 80, 80.5, 79.5}, "worse"},
		{lower, []float64{60, 140, 80, 120, 100, 100}, "unresolved (spread 50.0%)"},
	} {
		if got, _, _ := compareMetric(c.m, base, c.b); got != c.want {
			t.Errorf("%s %v: verdict %q, want %q", c.m.Better, c.b, got, c.want)
		}
	}
}

// scaled is a ~1% copy of a workload, small enough for a unit test but
// still exercising its every layer: evictions, merges, the outage.
func scaled(w *workload) *workload {
	c := *w
	c.users = max(40, w.users/100)
	if c.maxResident > 0 {
		c.maxResident = w.maxResident / 100
	}
	return &c
}

const testBudget = 300 // ops per worker

func TestOpStreamsAreSeededAndDisjoint(t *testing.T) {
	for _, w := range workloads {
		w := scaled(w)
		ids := userIDs(w.users)
		stream := func(seed uint64, worker int) []string {
			g := newGen(w, seed, worker, ids)
			var out []string
			var o op
			for i := 0; i < testBudget; i++ {
				g.next(&o)
				if o.uid%workers != worker {
					t.Fatalf("%s: worker %d drew user %d, owned by worker %d", w.name, worker, o.uid, o.uid%workers)
				}
				b, err := json.Marshal(struct {
					Kind  opKind
					UID   int
					Items any
					Pos   any
					Merge bool
					At    time.Time
				}{o.kind, o.uid, o.items, o.pos, o.merge, o.at})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, string(b))
			}
			return out
		}
		for worker := 0; worker < workers; worker++ {
			a, b := stream(7, worker), stream(7, worker)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s worker %d: the same seed produced different op streams", w.name, worker)
			}
			if reflect.DeepEqual(a, stream(8, worker)) {
				t.Fatalf("%s worker %d: seeds 7 and 8 produced the same op stream", w.name, worker)
			}
		}
	}
}

// TestUsersFollowTraceCalibration checks the generator against
// trace.DefaultConfig: the number of top locations, the volume range, the
// nomadic count after n check-ins and the visit share of the top-1
// location.
func TestUsersFollowTraceCalibration(t *testing.T) {
	w := lookupWorkload("ads-table")
	box := w.homeBox()
	const users, n = 2000, 200
	var tops, nomadic, top1, routine float64
	rnd := randx.New(5, 6)
	for uid := 0; uid < users; uid++ {
		k := numTops(5, uid)
		if k < calib.MinTops || k > calib.MaxTops {
			t.Fatalf("user %d has %d top locations", uid, k)
		}
		if v := volume(5, uid); v < float64(calib.MinCheckIns) || v > float64(calib.MaxCheckIns) {
			t.Fatalf("user %d has volume %g", uid, v)
		}
		tops += float64(k)
		for c := 0; c < n; c++ {
			p := w.visit(box, 5, rnd, uid, c)
			near := -1
			for a := 0; a < k && near < 0; a++ {
				if p.Dist(anchor(box, 5, uid, a)) < 10*calib.WanderSigma {
					near = a
				}
			}
			switch {
			case near < 0:
				nomadic++
			case k == calib.MaxTops:
				routine++
				if near == 0 {
					top1++
				}
			}
		}
	}
	// Top counts are uniform over [MinTops, MaxTops].
	if mean, want := tops/users, float64(calib.MinTops+calib.MaxTops)/2; math.Abs(mean-want) > 0.15 {
		t.Errorf("mean top locations %.3f, want %.1f", mean, want)
	}
	// The first check-in is always nomadic (chance capped at 1), so the
	// expected count is NomadicScale·√n − (NomadicScale − 1).
	want := calib.NomadicScale*math.Sqrt(n) - (calib.NomadicScale - 1)
	if got := nomadic / users; math.Abs(got-want)/want > 0.05 {
		t.Errorf("mean nomadic check-ins of %d: %.2f, want %.2f", n, got, want)
	}
	if got, want := top1/routine, topCDF[calib.MaxTops-1][0]; math.Abs(got-want) > 0.02 {
		t.Errorf("top-1 visit share %.3f, want Zipf(%g) %.3f", got, calib.ZipfExponent, want)
	}
}

// TestScaledWorkloadsPassGates runs every workload at ~1% scale, untraced
// and traced, and requires every correctness gate to pass. The traced
// run's probes_change_nothing gate is the proof that wrapping the
// mechanisms, the ad provider and the durability sink leaves the
// population fingerprint unchanged; the two runs must also agree on it.
func TestScaledWorkloadsPassGates(t *testing.T) {
	for _, w := range workloads {
		w := scaled(w)
		t.Run(w.name, func(t *testing.T) {
			var fps []string
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(w, 3, testBudget, traced, t.TempDir(), testLog{t})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("trace=%v: gate %s failed: %s", traced, c.Name, c.Detail)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != res.Samples["report"]+res.Samples[res.QueryOp] || res.Attempted < workers*testBudget {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d (%s)", traced, res.Correct, res.Attempted, res.Failed, res.FirstError)
				}
				want := perLayer
				if !traced {
					want = endToEnd
				}
				for _, m := range want {
					if _, ok := res.Metrics[m.Name]; !ok && !refused(res, m.Name) {
						t.Errorf("trace=%v: metric %s missing", traced, m.Name)
					}
				}
				fps = append(fps, res.Fingerprint)
			}
			if fps[0] != fps[1] {
				t.Errorf("untraced fingerprint %s != traced %s", fps[0], fps[1])
			}
		})
	}
}

// refused reports whether a too-small test run legitimately withheld a
// percentile metric.
func refused(res *result, name string) bool {
	for _, r := range res.Refused {
		if strings.HasPrefix(r, name+":") {
			return true
		}
	}
	return false
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and
// the metric and workload tables here in lockstep.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code's table")
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code's table")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}
