package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/spatial"
)

func TestConnectivityBasicGroups(t *testing.T) {
	// Two tight groups 1 km apart plus one outlier.
	pts := []geo.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, // chain: group A
		{X: 1000, Y: 0}, {X: 1010, Y: 5}, // group B
		{X: 5000, Y: 5000}, // outlier
	}
	clusters, err := Connectivity(pts, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3", len(clusters))
	}
	if clusters[0].Size() != 3 || clusters[1].Size() != 2 || clusters[2].Size() != 1 {
		t.Errorf("sizes = %d,%d,%d", clusters[0].Size(), clusters[1].Size(), clusters[2].Size())
	}
	if got := clusters[0].Centroid; math.Abs(got.X-10) > 1e-9 || math.Abs(got.Y) > 1e-9 {
		t.Errorf("largest centroid = %v, want (10,0)", got)
	}
}

// TestConnectivityChaining: points individually farther than the threshold
// still merge through intermediate points (single-linkage semantics).
func TestConnectivityChaining(t *testing.T) {
	pts := []geo.Point{
		{X: 0, Y: 0}, {X: 45, Y: 0}, {X: 90, Y: 0}, {X: 135, Y: 0},
	}
	clusters, err := Connectivity(pts, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Size() != 4 {
		t.Errorf("chained points did not merge: %+v", clusters)
	}
	// Below threshold they split.
	clusters, err = Connectivity(pts, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 4 {
		t.Errorf("want 4 singletons, got %d clusters", len(clusters))
	}
}

func TestConnectivityEmptyAndErrors(t *testing.T) {
	if cs, err := Connectivity(nil, 50); err != nil || cs != nil {
		t.Errorf("empty input: %v, %v", cs, err)
	}
	if _, err := Connectivity([]geo.Point{{X: 1, Y: 1}}, 0); err == nil {
		t.Error("threshold=0 expected error")
	}
	if _, err := Connectivity([]geo.Point{{X: 1, Y: 1}}, -5); err == nil {
		t.Error("negative threshold expected error")
	}
}

func TestConnectivityDeterministicOrder(t *testing.T) {
	rnd := randx.New(5, 5)
	pts := make([]geo.Point, 500)
	for i := range pts {
		pts[i] = geo.Point{X: rnd.Float64() * 3000, Y: rnd.Float64() * 3000}
	}
	a, err := Connectivity(pts, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Connectivity(pts, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic cluster count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Size() != b[i].Size() || a[i].Members[0] != b[i].Members[0] {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

// TestConnectivityInvariants: clusters partition the input; within-cluster
// graph is connected at the threshold (checked via pairwise reachability
// proxy: every member has at least one other member within threshold when
// the cluster is larger than one).
func TestConnectivityInvariants(t *testing.T) {
	rnd := randx.New(9, 1)
	pts := make([]geo.Point, 800)
	for i := range pts {
		// Three dense sites plus scatter.
		switch i % 4 {
		case 0:
			pts[i] = geo.Point{X: rnd.Float64() * 40, Y: rnd.Float64() * 40}
		case 1:
			pts[i] = geo.Point{X: 2000 + rnd.Float64()*40, Y: rnd.Float64() * 40}
		case 2:
			pts[i] = geo.Point{X: 0, Y: 2000 + rnd.Float64()*40}
		default:
			pts[i] = geo.Point{X: rnd.Float64() * 4000, Y: rnd.Float64() * 4000}
		}
	}
	const threshold = 50.0
	clusters, err := Connectivity(pts, threshold)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, c := range clusters {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("point %d in two clusters", m)
			}
			seen[m] = true
		}
		if c.Size() > 1 {
			for _, m := range c.Members {
				hasNeighbour := false
				for _, o := range c.Members {
					if o != m && pts[m].Dist(pts[o]) <= threshold {
						hasNeighbour = true
						break
					}
				}
				if !hasNeighbour {
					t.Fatalf("member %d isolated inside its cluster", m)
				}
			}
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("clusters cover %d of %d points", len(seen), len(pts))
	}
}

// TestConnectivityCrossClusterSeparation: points in different clusters are
// farther apart than the threshold.
func TestConnectivityCrossClusterSeparation(t *testing.T) {
	rnd := randx.New(10, 2)
	pts := make([]geo.Point, 300)
	for i := range pts {
		pts[i] = geo.Point{X: rnd.Float64() * 2000, Y: rnd.Float64() * 2000}
	}
	const threshold = 75.0
	clusters, err := Connectivity(pts, threshold)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < len(clusters); a++ {
		for b := a + 1; b < len(clusters); b++ {
			for _, i := range clusters[a].Members {
				for _, j := range clusters[b].Members {
					if pts[i].Dist(pts[j]) <= threshold {
						t.Fatalf("points %d and %d within threshold but in different clusters", i, j)
					}
				}
			}
		}
	}
}

func TestTrimDiscardsOutliers(t *testing.T) {
	// Dense core plus a far outlier initially inside the cluster.
	pts := []geo.Point{
		{X: 0, Y: 0}, {X: 5, Y: 5}, {X: -5, Y: 5}, {X: 0, Y: -7},
		{X: 500, Y: 500}, // outlier
	}
	// Radius 150: the contaminated initial centroid sits ~142 m from the
	// core points, so they survive the first pass while the outlier
	// (~565 m away) is discarded; the centroid then snaps back to the core.
	members, centroid, err := Trim(pts, []int{0, 1, 2, 3, 4}, TrimOptions{Radius: 150}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 {
		t.Fatalf("members = %v, want outlier dropped", members)
	}
	for _, m := range members {
		if m == 4 {
			t.Error("outlier survived trimming")
		}
	}
	if centroid.Norm() > 10 {
		t.Errorf("centroid %v drifted", centroid)
	}
}

func TestTrimAdoptsNearbyAvailable(t *testing.T) {
	pts := []geo.Point{
		{X: 0, Y: 0}, {X: 5, Y: 0}, // initial members
		{X: 10, Y: 0},      // available, nearby: should be adopted
		{X: 2000, Y: 2000}, // available, far: should stay out
		{X: 12, Y: 0},      // NOT available: must stay out even though near
	}
	avail := func(i int) bool { return i != 4 }
	members, _, err := Trim(pts, []int{0, 1}, TrimOptions{Radius: 100}, avail)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	if len(members) != len(want) {
		t.Fatalf("members = %v, want %v", members, want)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("members = %v, want %v", members, want)
		}
	}
}

func TestTrimDissolves(t *testing.T) {
	// Initial members mutually repel: centroid sits between two far points
	// and both get discarded.
	pts := []geo.Point{{X: -1000, Y: 0}, {X: 1000, Y: 0}}
	members, _, err := Trim(pts, []int{0, 1}, TrimOptions{Radius: 100}, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 0 {
		t.Errorf("members = %v, want dissolved cluster", members)
	}
}

func TestTrimErrors(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}}
	if _, _, err := Trim(pts, []int{0}, TrimOptions{Radius: 0}, nil); err == nil {
		t.Error("radius=0 expected error")
	}
	if _, _, err := Trim(pts, []int{5}, TrimOptions{Radius: 10}, nil); err == nil {
		t.Error("out-of-range index expected error")
	}
	members, _, err := Trim(pts, nil, TrimOptions{Radius: 10}, nil)
	if err != nil || members != nil {
		t.Errorf("empty initial: %v, %v", members, err)
	}
}

// TestTrimConverges: trimming on Gaussian-noised clusters reaches a
// fixpoint well inside the iteration bound and the refined centroid is
// closer to the true centre than the raw largest-cluster centroid.
func TestTrimConverges(t *testing.T) {
	rnd := randx.New(21, 3)
	truth := geo.Point{X: 300, Y: -200}
	var pts []geo.Point
	for i := 0; i < 500; i++ {
		pts = append(pts, truth.Add(rnd.GaussianPolar(120)))
	}
	// Contaminate with a distant secondary site; these are available for
	// adoption but too far to be adopted.
	other := geo.Point{X: 5000, Y: 5000}
	for i := 0; i < 60; i++ {
		pts = append(pts, other.Add(rnd.GaussianPolar(120)))
	}
	// As in Algorithm 1, trimming starts from a connectivity cluster — here
	// the 500 points of the dominant site.
	initial := make([]int, 500)
	for i := range initial {
		initial[i] = i
	}
	members, centroid, err := Trim(pts, initial, TrimOptions{Radius: 360}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) == 0 {
		t.Fatal("cluster dissolved unexpectedly")
	}
	if d := centroid.Dist(truth); d > 60 {
		t.Errorf("trimmed centroid %g m from truth", d)
	}
}

// BenchmarkConnectivityCalibrated clusters one user's window in the
// calibrated trace shape (see calibratedCheckIns) at the sizes of a
// short window, a longer one, and the paper's densest user.
func BenchmarkConnectivityCalibrated(b *testing.B) {
	for _, n := range []int{120, 180, 1000, 11_435} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			pts := calibratedCheckIns(randx.New(1, uint64(n)), n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Connectivity(pts, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConnectivity10k(b *testing.B) {
	rnd := randx.New(1, 1)
	pts := make([]geo.Point, 10_000)
	for i := range pts {
		pts[i] = geo.Point{X: rnd.Float64() * 20_000, Y: rnd.Float64() * 20_000}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Connectivity(pts, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// gaussianSites builds a mixture of Gaussian-noised sites, the shape the
// attack feeds Trim at scale.
func gaussianSites(rnd *randx.Rand, perSite int) []geo.Point {
	sites := []geo.Point{{X: 0, Y: 0}, {X: 900, Y: 400}, {X: -1200, Y: 2500}}
	var pts []geo.Point
	for _, s := range sites {
		for i := 0; i < perSite; i++ {
			pts = append(pts, s.Add(rnd.GaussianPolar(120)))
		}
	}
	return pts
}

// TestTrimWithIndexMatchesScan: adoption through a prebuilt spatial index
// must select exactly the same members as the full linear scan, for index
// cell sizes both below and above the trim radius.
func TestTrimWithIndexMatchesScan(t *testing.T) {
	rnd := randx.New(11, 2)
	pts := gaussianSites(rnd, 120)
	initial := make([]int, 120)
	for i := range initial {
		initial[i] = i
	}
	avail := func(i int) bool { return i%7 != 0 }
	wantMembers, wantCentroid, err := Trim(pts, initial, TrimOptions{Radius: 360}, avail)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []float64{50, 360, 1000} {
		grid, err := spatial.NewGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			grid.Insert(i, p)
		}
		got, centroid, err := Trim(pts, initial, TrimOptions{Radius: 360, Index: grid}, avail)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantMembers) {
			t.Fatalf("cell=%g: members differ from scan path", cell)
		}
		if centroid.Dist(wantCentroid) > 1e-9 {
			t.Fatalf("cell=%g: centroid %v vs scan %v", cell, centroid, wantCentroid)
		}
	}
}

func TestTrimDeduplicatesInitial(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	members, centroid, err := Trim(pts, []int{1, 0, 1, 0, 0}, TrimOptions{Radius: 100}, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(members, []int{0, 1}) {
		t.Fatalf("members = %v, want [0 1]", members)
	}
	if want := (geo.Point{X: 5, Y: 0}); centroid.Dist(want) > 1e-9 {
		t.Fatalf("centroid = %v, want %v (duplicates must not skew the mean)", centroid, want)
	}
}

// trimMapBaseline reimplements the pre-optimisation Trim (map membership,
// full centroid recomputation, linear adoption scan) as the benchmark
// baseline for the indexed-membership rewrite.
func trimMapBaseline(pts []geo.Point, initial []int, radius float64, maxIter int) ([]int, geo.Point) {
	in := make(map[int]bool, len(initial))
	for _, i := range initial {
		in[i] = true
	}
	centroidFromSet := func() geo.Point {
		var sx, sy float64
		for i := range in {
			sx += pts[i].X
			sy += pts[i].Y
		}
		n := float64(len(in))
		return geo.Point{X: sx / n, Y: sy / n}
	}
	r2 := radius * radius
	centroid := centroidFromSet()
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := range in {
			if pts[i].Dist2(centroid) > r2 {
				delete(in, i)
				changed = true
			}
		}
		if len(in) == 0 {
			return nil, geo.Point{}
		}
		for i := range pts {
			if in[i] {
				continue
			}
			if pts[i].Dist2(centroid) <= r2 {
				in[i] = true
				changed = true
			}
		}
		centroid = centroidFromSet()
		if !changed {
			break
		}
	}
	members := make([]int, 0, len(in))
	for i := range in {
		members = append(members, i)
	}
	sort.Ints(members)
	return members, centroid
}

func benchTrimInput(b *testing.B) ([]geo.Point, []int) {
	b.Helper()
	rnd := randx.New(1, 1)
	pts := gaussianSites(rnd, 2000)
	initial := make([]int, 2000)
	for i := range initial {
		initial[i] = i
	}
	return pts, initial
}

func BenchmarkTrim(b *testing.B) {
	b.Run("indexed", func(b *testing.B) {
		pts, initial := benchTrimInput(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := Trim(pts, initial, TrimOptions{Radius: 360}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed-grid", func(b *testing.B) {
		pts, initial := benchTrimInput(b)
		grid, err := spatial.NewGrid(360)
		if err != nil {
			b.Fatal(err)
		}
		for i, p := range pts {
			grid.Insert(i, p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := Trim(pts, initial, TrimOptions{Radius: 360, Index: grid}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map-baseline", func(b *testing.B) {
		pts, initial := benchTrimInput(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trimMapBaseline(pts, initial, 360, 64)
		}
	})
}
