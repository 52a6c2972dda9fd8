package spatial

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/randx"
)

func TestNewGridValidation(t *testing.T) {
	for _, size := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewGrid(size); err == nil {
			t.Errorf("NewGrid(%g) expected error", size)
		}
	}
	g, err := NewGrid(50)
	if err != nil {
		t.Fatal(err)
	}
	if g.CellSize() != 50 || g.Len() != 0 {
		t.Errorf("fresh grid: cell=%g len=%d", g.CellSize(), g.Len())
	}
}

// TestGridWithinMatchesBruteForce property: the grid query must agree
// with an O(n²) scan for random point sets, radii, and cell sizes, near
// the origin and far out: past 2^31 cells (±1e11, ±1e15), where float
// steps exceed a cell (1e18, -3e19), and in saturated cells (±1e300).
func TestGridWithinMatchesBruteForce(t *testing.T) {
	rnd := randx.New(42, 42)
	offsets := []float64{0, 1e11, -1e11, 1e15, -1e15, 1e18, -3e19, 1e300, -1e300}
	for trial := 0; trial < 20*len(offsets); trial++ {
		off := offsets[trial%len(offsets)]
		cell := 10 + rnd.Float64()*200
		g, err := NewGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		const n = 300
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: off + rnd.Float64()*2000 - 1000, Y: off + rnd.Float64()*2000 - 1000}
			g.Insert(i, pts[i])
		}
		q := geo.Point{X: off + rnd.Float64()*2000 - 1000, Y: off + rnd.Float64()*2000 - 1000}
		radius := rnd.Float64() * 500
		got := g.Within(nil, q, radius)
		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if p.Dist(q) <= radius {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestGridWithinNegativeRadius(t *testing.T) {
	g, _ := NewGrid(10)
	g.Insert(0, geo.Point{})
	if got := g.Within(nil, geo.Point{}, -1); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
	// Radii with no finite cell range match nothing rather than walk
	// 2^63 cells.
	for _, r := range []float64{math.NaN(), math.Inf(1)} {
		if got := g.Within(nil, geo.Point{}, r); len(got) != 0 {
			t.Errorf("radius %g returned %v", r, got)
		}
	}
}

// TestGridFarOutPoints: points beyond the old 32-bit cell range, and
// non-finite ones, are found (or not) exactly as a scan would find them.
func TestGridFarOutPoints(t *testing.T) {
	g, _ := NewGrid(50)
	far := []geo.Point{{X: 2e11, Y: 0}, {X: -2e11, Y: 5}, {X: 1e300, Y: 1e300}, {X: math.MaxFloat64, Y: 0}}
	for i, p := range far {
		g.Insert(i, p)
	}
	g.Insert(len(far), geo.Point{X: math.NaN(), Y: 0})
	g.Insert(len(far)+1, geo.Point{X: math.Inf(1), Y: 0})
	for i, p := range far {
		if got := g.Within(nil, p, 1); len(got) != 1 || got[0] != i {
			t.Errorf("Within(%v) = %v, want [%d]", p, got, i)
		}
	}
	if got := g.Within(nil, geo.Point{X: math.Inf(1), Y: 0}, 1); len(got) != 0 {
		t.Errorf("Within(+Inf) = %v, want none", got)
	}
	if g.Len() != len(far)+2 {
		t.Errorf("Len = %d, want every inserted point counted, non-finite ones included", g.Len())
	}
}

func TestForEachWithin(t *testing.T) {
	g, _ := NewGrid(25)
	for i := 0; i < 10; i++ {
		g.Insert(i, geo.Point{X: float64(i) * 10, Y: 0})
	}
	var ids []int
	g.ForEachWithin(geo.Point{X: 0, Y: 0}, 35, func(id int, p geo.Point) {
		ids = append(ids, id)
	})
	sort.Ints(ids)
	if len(ids) != 4 { // 0, 10, 20, 30
		t.Errorf("ForEachWithin ids = %v", ids)
	}
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Components() != 5 || uf.Len() != 5 {
		t.Fatalf("fresh UF: comps=%d len=%d", uf.Components(), uf.Len())
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union should not merge")
	}
	if !uf.Connected(0, 1) || uf.Connected(0, 2) {
		t.Error("connectivity wrong")
	}
	uf.Union(2, 3)
	uf.Union(0, 2)
	if uf.Components() != 2 {
		t.Errorf("Components = %d, want 2", uf.Components())
	}
	if uf.ComponentSize(3) != 4 {
		t.Errorf("ComponentSize = %d, want 4", uf.ComponentSize(3))
	}
	if uf.ComponentSize(4) != 1 {
		t.Errorf("singleton size = %d", uf.ComponentSize(4))
	}
}

// TestUnionFindInvariants property: component count decreases by exactly
// one per successful merge, and sizes sum to n.
func TestUnionFindInvariants(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		const n = 64
		uf := NewUnionFind(n)
		for _, pr := range pairs {
			a, b := int(pr[0])%n, int(pr[1])%n
			before := uf.Components()
			merged := uf.Union(a, b)
			after := uf.Components()
			if merged && after != before-1 {
				return false
			}
			if !merged && after != before {
				return false
			}
		}
		// Sizes of distinct roots must sum to n.
		seen := make(map[int]bool)
		total := 0
		for i := 0; i < n; i++ {
			r := uf.Find(i)
			if !seen[r] {
				seen[r] = true
				total += uf.ComponentSize(r)
			}
		}
		return total == n && len(seen) == uf.Components()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewUnionFindNegative(t *testing.T) {
	uf := NewUnionFind(-3)
	if uf.Len() != 0 || uf.Components() != 0 {
		t.Errorf("negative n: len=%d comps=%d", uf.Len(), uf.Components())
	}
}

func BenchmarkGridWithin(b *testing.B) {
	g, _ := NewGrid(50)
	rnd := randx.New(1, 1)
	for i := 0; i < 10_000; i++ {
		g.Insert(i, geo.Point{X: rnd.Float64() * 10_000, Y: rnd.Float64() * 10_000})
	}
	q := geo.Point{X: 5000, Y: 5000}
	b.ResetTimer()
	var buf []int
	for i := 0; i < b.N; i++ {
		buf = g.Within(buf[:0], q, 100)
	}
}

func TestGridReset(t *testing.T) {
	g, err := NewGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g.Insert(i, geo.Point{X: float64(i), Y: float64(-i)})
	}
	g.Reset()
	if g.Len() != 0 {
		t.Fatalf("Len after Reset = %d", g.Len())
	}
	if got := g.Within(nil, geo.Point{X: 50, Y: -50}, 1000); len(got) != 0 {
		t.Fatalf("Within after Reset returned %v", got)
	}
	if got := g.Within(nil, geo.Point{}, 1000); len(got) != 0 {
		t.Fatalf("Within after Reset returned %v", got)
	}
	// The grid must be fully usable again after Reset.
	g.Insert(7, geo.Point{X: 3, Y: 4})
	if got := g.Within(nil, geo.Point{}, 5); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Within after refill = %v, want [7]", got)
	}
	if g.CellSize() != 10 {
		t.Fatalf("CellSize changed across Reset: %g", g.CellSize())
	}
}
