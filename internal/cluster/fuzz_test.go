package cluster

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/randx"
)

// bruteConnectivity is the O(n²) reference for Connectivity: a
// union-find over every pair with Dist2 ≤ threshold², grouped and
// ordered as Connectivity documents. Roots are always the smallest
// index of their component, so grouping by root in ascending order
// yields ascending members and clusters ordered by smallest member.
func bruteConnectivity(pts []geo.Point, threshold float64) []Cluster {
	parent := make([]int, len(pts))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	r2 := threshold * threshold
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist2(pts[j]) <= r2 {
				ri, rj := find(i), find(j)
				parent[max(ri, rj)] = min(ri, rj)
			}
		}
	}
	at := make(map[int]int) // root → position in clusters
	var clusters []Cluster
	for i := range pts {
		r := find(i)
		k, ok := at[r]
		if !ok {
			k = len(clusters)
			at[r] = k
			clusters = append(clusters, Cluster{})
		}
		clusters[k].Members = append(clusters[k].Members, i)
	}
	for k := range clusters {
		var sx, sy float64
		for _, i := range clusters[k].Members {
			sx += pts[i].X
			sy += pts[i].Y
		}
		n := float64(len(clusters[k].Members))
		clusters[k].Centroid = geo.Point{X: sx / n, Y: sy / n}
	}
	slices.SortStableFunc(clusters, func(a, b Cluster) int { return b.Size() - a.Size() })
	return clusters
}

// checkAgainstBrute fails t unless Connectivity matches the reference
// exactly: the same clusters in the same order, the same members, and
// bit-identical centroids.
func checkAgainstBrute(t *testing.T, pts []geo.Point, threshold float64) {
	t.Helper()
	got, err := Connectivity(pts, threshold)
	if !(threshold > 0) || math.IsInf(threshold, 0) {
		if err == nil {
			t.Fatalf("threshold %g: expected an error", threshold)
		}
		return
	}
	if err != nil {
		t.Fatalf("threshold %g: %v", threshold, err)
	}
	want := bruteConnectivity(pts, threshold)
	if len(got) != len(want) {
		t.Fatalf("threshold %g, %d points: %d clusters, brute force %d", threshold, len(pts), len(got), len(want))
	}
	for k := range want {
		if !slices.Equal(got[k].Members, want[k].Members) {
			t.Fatalf("threshold %g: cluster %d members %v, brute force %v", threshold, k, got[k].Members, want[k].Members)
		}
		g, w := got[k].Centroid, want[k].Centroid
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
			t.Fatalf("threshold %g: cluster %d centroid %v, brute force %v", threshold, k, g, w)
		}
	}
}

// maxFuzzPoints caps a fuzz input so the O(n²) reference stays cheap.
const maxFuzzPoints = 512

// decodeFuzzPoints reads consecutive 16-byte records, each a point's X
// and Y as little-endian float64 bits; a trailing partial record is
// ignored.
func decodeFuzzPoints(data []byte) []geo.Point {
	n := min(len(data)/16, maxFuzzPoints)
	pts := make([]geo.Point, n)
	for i := range pts {
		rec := data[16*i:]
		pts[i] = geo.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(rec)),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
		}
	}
	return pts
}

// FuzzConnectivity compares Connectivity with the brute-force reference
// on arbitrary thresholds and point sets. The committed seeds in
// testdata/fuzz/FuzzConnectivity are a 200-visit top with 15 m wander, a
// 45 m chain, points spaced exactly θ and θ/2 along cell edges,
// duplicates, NaN and ±Inf points, and two identical points at
// x = 1.1e11 (beyond where a 32-bit cell index wraps).
func FuzzConnectivity(f *testing.F) {
	f.Fuzz(func(t *testing.T, threshold float64, data []byte) {
		checkAgainstBrute(t, decodeFuzzPoints(data), threshold)
	})
}

// calibratedCheckIns draws n check-ins in the trace generator's shape:
// three top locations holding 60/30/10% of the routine visits with 15 m
// Gaussian wander, plus 10% one-off nomadic points over a 20 km square.
func calibratedCheckIns(rnd *randx.Rand, n int) []geo.Point {
	tops := []geo.Point{{X: 0, Y: 0}, {X: 3000, Y: 1200}, {X: -2500, Y: 4000}}
	pts := make([]geo.Point, 0, n)
	for i := 0; i < n; i++ {
		switch u := rnd.Float64(); {
		case u < 0.1:
			pts = append(pts, geo.Point{X: rnd.Float64()*20_000 - 10_000, Y: rnd.Float64()*20_000 - 10_000})
		case u < 0.64:
			pts = append(pts, tops[0].Add(rnd.GaussianPolar(15)))
		case u < 0.91:
			pts = append(pts, tops[1].Add(rnd.GaussianPolar(15)))
		default:
			pts = append(pts, tops[2].Add(rnd.GaussianPolar(15)))
		}
	}
	return pts
}

// TestConnectivityMatchesBruteForce runs the reference comparison over
// seeded random inputs of every shape the cell shortcuts must get
// right: dense tops, chains, cell-aligned lattices at exactly θ and θ/2,
// duplicates, far-out and non-finite coordinates, points straddling the
// cell-index limit, and thresholds whose square is not a normal float.
func TestConnectivityMatchesBruteForce(t *testing.T) {
	side := 25.0 // θ/2 at θ = 50
	edge := maxCellIndex * side
	weird := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.MaxFloat64, 1.1e11, -1e15, edge, -edge, math.Nextafter(edge, 0), math.Nextafter(-edge, 0)}
	shapes := []struct {
		name string
		gen  func(rnd *randx.Rand) ([]geo.Point, float64)
	}{
		{"calibrated", func(rnd *randx.Rand) ([]geo.Point, float64) {
			return calibratedCheckIns(rnd, 150+rnd.IntN(250)), 50
		}},
		{"chain", func(rnd *randx.Rand) ([]geo.Point, float64) {
			var pts []geo.Point
			p := geo.Point{X: rnd.Float64() * 1000, Y: rnd.Float64() * 1000}
			for i := 0; i < 200; i++ {
				a := rnd.Angle()
				step := 40 + rnd.Float64()*15
				p = p.Add(geo.Point{X: step * math.Cos(a), Y: step * math.Sin(a)})
				pts = append(pts, p)
			}
			return pts, 50
		}},
		{"lattice", func(rnd *randx.Rand) ([]geo.Point, float64) {
			// Points on cell edges, spaced θ/2 and θ: pairs exactly at
			// the threshold must connect, and diagonals must not.
			theta := []float64{50, 0.3, 7}[rnd.IntN(3)]
			var pts []geo.Point
			for i := 0; i < 300; i++ {
				k := float64(rnd.IntN(4) + 1)
				pts = append(pts, geo.Point{
					X: float64(rnd.IntN(40)-20) * theta / 2 * k,
					Y: float64(rnd.IntN(40)-20) * theta / 2,
				})
			}
			return pts, theta
		}},
		{"duplicates", func(rnd *randx.Rand) ([]geo.Point, float64) {
			base := []geo.Point{{X: 0, Y: 0}, {X: 49.999, Y: 0}, {X: 100, Y: 100}, {X: -3e9, Y: 7}}
			var pts []geo.Point
			for i := 0; i < 200; i++ {
				pts = append(pts, base[rnd.IntN(len(base))])
			}
			return pts, 50
		}},
		{"offset", func(rnd *randx.Rand) ([]geo.Point, float64) {
			// Calibrated points moved far out: to large cell indexes,
			// and past the cell-index limit (pairwise).
			off := []float64{1e9, -3e10, 5e10, 1.1e11, -2e11, -1e15}[rnd.IntN(6)]
			pts := calibratedCheckIns(rnd, 200)
			for i := range pts {
				pts[i].X += off
			}
			return pts, 50
		}},
		{"limit", func(rnd *randx.Rand) ([]geo.Point, float64) {
			// Points on both sides of the cell-index limit, a few ULPs
			// apart, so gridded and pairwise points must connect.
			var pts []geo.Point
			for i := 0; i < 150; i++ {
				x := edge
				for s := rnd.IntN(12) - 6; s != 0; {
					if s > 0 {
						x, s = math.Nextafter(x, math.Inf(1)), s-1
					} else {
						x, s = math.Nextafter(x, 0), s+1
					}
				}
				if rnd.IntN(2) == 0 {
					x = -x
				}
				pts = append(pts, geo.Point{X: x, Y: rnd.Float64() * 120})
			}
			return pts, 50
		}},
		{"coarse", func(rnd *randx.Rand) ([]geo.Point, float64) {
			// From the limit up to where a float step exceeds a cell:
			// neighbouring representable x values — some within θ,
			// some not — must not be merged by a shared cell.
			x0 := math.Ldexp(side, 31+rnd.IntN(28))
			var pts []geo.Point
			for i := 0; i < 100; i++ {
				x := x0
				for s := rnd.IntN(8); s > 0; s-- {
					x = math.Nextafter(x, math.Inf(1))
				}
				pts = append(pts, geo.Point{X: x, Y: float64(rnd.IntN(3)) * 20})
			}
			return pts, 50
		}},
		{"weird", func(rnd *randx.Rand) ([]geo.Point, float64) {
			pts := calibratedCheckIns(rnd, 100)
			for i := 0; i < 60; i++ {
				x := weird[rnd.IntN(len(weird))]
				y := rnd.Float64() * 60
				if rnd.IntN(3) == 0 {
					y = weird[rnd.IntN(len(weird))]
				}
				pts = append(pts, geo.Point{X: x, Y: y})
			}
			rnd.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			return pts, 50
		}},
		{"odd-threshold", func(rnd *randx.Rand) ([]geo.Point, float64) {
			// threshold² subnormal, zero or +Inf: squared distances no
			// longer behave like real ones, and infinite points can
			// connect when threshold² is +Inf.
			theta := []float64{1e-160, 1e-170, 1e-300, 2e154, 1e200, math.MaxFloat64}[rnd.IntN(6)]
			var pts []geo.Point
			for i := 0; i < 120; i++ {
				scale := theta * (0.2 + rnd.Float64()*3)
				if rnd.IntN(4) == 0 {
					scale = 1
				}
				p := geo.Point{X: float64(rnd.IntN(9)-4) * scale, Y: float64(rnd.IntN(9)-4) * scale}
				if rnd.IntN(10) == 0 {
					p.X = weird[rnd.IntN(len(weird))]
				}
				pts = append(pts, p)
			}
			return pts, theta
		}},
	}
	for k, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			rnd := randx.New(13, uint64(k))
			for trial := 0; trial < 20; trial++ {
				pts, theta := shape.gen(rnd)
				checkAgainstBrute(t, pts, theta)
			}
		})
	}
}
