// Package cluster implements the clustering machinery of the paper's
// longitudinal location exposure attack and location-profiling step:
// connectivity-based clustering (two check-ins belong together when their
// Euclidean distance is within a threshold, transitively) and the
// centroid trimming refinement of Algorithm 1 (lines 10–19).
//
// Connectivity clustering sorts the points by grid cell and unites them
// with a union-find, so its cost stays linear in the check-in count even
// when thousands of visits crowd one location — the paper's per-user
// histories reach ~11k check-ins across 37k users.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/spatial"
)

// Cluster is one connected group of input points.
type Cluster struct {
	// Members holds indexes into the point slice passed to the clustering
	// function, in ascending order.
	Members []int
	// Centroid is the arithmetic mean of the member points.
	Centroid geo.Point
}

// Size returns the number of member points (the "frequency" of the
// location in the paper's profile terminology).
func (c Cluster) Size() int { return len(c.Members) }

// maxCellIndex bounds |coordinate / cell side| for a point to get a cell,
// so that a cell's two indexes pack into one uint64 sort key. Below it
// the float64 quotient is within 2^-22 of a cell of the exact one, which
// keeps both cell shortcuts of Connectivity exact: two points of one cell
// are at most ~0.71·threshold apart, and two points within threshold are
// at most 3 cells apart on each axis. Points beyond it are compared
// pairwise instead (at the paper's 50 m that is 5.4e10 m out).
const maxCellIndex = 1 << 31

// cellPoint is one point's entry in Connectivity's cell-sorted list: its
// cell's x and y indexes, each offset by maxCellIndex, in the high and
// low halves of key.
type cellPoint struct {
	key uint64
	i   int // index into the input slice
}

// Connectivity groups points transitively: indices i and j end up in the
// same cluster when a chain of points with consecutive distances ≤
// threshold (Dist2 ≤ threshold², exactly) connects them. Clusters are
// returned sorted by descending size, ties broken by the smallest member
// index, so results are deterministic.
//
// Points are bucketed into square cells of side threshold/2 and the
// (cell, index) pairs sorted once, so each cell is a contiguous run. The
// points of one cell are united without a distance test. Each cell is
// then compared with the later cells within ±3 on each axis (±2 covers
// the threshold, the extra ring absorbs rounding of the cell index): a
// pair already in one component is skipped, any other stops at its
// first point pair within threshold. Points with a NaN or infinite
// coordinate are then never within threshold of anything and stay
// singletons, and points too far out for an exact cell index are
// compared with every other point. When threshold² is not a normal
// float64 every point is compared with every other: the cell bounds
// above rely on squared distances rounding like real ones, and an
// infinite threshold² even connects infinite points.
func Connectivity(pts []geo.Point, threshold float64) ([]Cluster, error) {
	if !(threshold > 0) || math.IsInf(threshold, 0) {
		return nil, fmt.Errorf("cluster: connectivity threshold %g must be positive and finite", threshold)
	}
	if len(pts) == 0 {
		return nil, nil
	}
	r2 := threshold * threshold
	side := threshold / 2
	gridded := r2 >= 0x1p-1022 && !math.IsInf(r2, 1)

	cells := make([]cellPoint, 0, len(pts))
	var far []int
	for i, p := range pts {
		cx, cy := p.X/side, p.Y/side
		switch {
		case gridded && math.Abs(cx) < maxCellIndex && math.Abs(cy) < maxCellIndex:
			x, y := uint64(math.Floor(cx)+maxCellIndex), uint64(math.Floor(cy)+maxCellIndex)
			cells = append(cells, cellPoint{key: x<<32 | y, i: i})
		case gridded && !(finite(p.X) && finite(p.Y)):
			// Dist2 against such a point is NaN or +Inf, never ≤ the
			// finite r2: a singleton.
		default:
			far = append(far, i)
		}
	}
	// Order within a cell is irrelevant: its points all join one
	// component, whichever pairs are tested.
	slices.SortFunc(cells, func(a, b cellPoint) int { return cmp.Compare(a.key, b.key) })

	uf := spatial.NewUnionFind(len(pts))
	// One run per occupied cell, in sorted order; its points are
	// cells[runs[k].start:runs[k+1].start]. A sentinel closes the last.
	type run struct {
		x, y  int64
		start int
	}
	var runs []run
	for k, c := range cells {
		if k > 0 && c.key == cells[k-1].key {
			uf.Union(cells[k-1].i, c.i)
			continue
		}
		runs = append(runs, run{x: int64(c.key >> 32), y: int64(c.key & math.MaxUint32), start: k})
	}
	nr := len(runs)
	runs = append(runs, run{start: len(cells)})

	// link unites runs a and b if any of their point pairs lies within
	// threshold.
	link := func(a, b int) {
		ca, cb := cells[runs[a].start:runs[a+1].start], cells[runs[b].start:runs[b+1].start]
		if uf.Find(ca[0].i) == uf.Find(cb[0].i) {
			return
		}
		for _, p := range ca {
			for _, q := range cb {
				if pts[p.i].Dist2(pts[q.i]) <= r2 {
					uf.Union(p.i, q.i)
					return
				}
			}
		}
	}
	// next[dx] is the first run at or after cell (x+dx, y-3) for the
	// current run (x, y); it only moves forward as the current run does.
	var next [4]int
	for a := 0; a < nr; a++ {
		x, y := runs[a].x, runs[a].y
		for b := a + 1; b < nr && runs[b].x == x && runs[b].y <= y+3; b++ {
			link(a, b)
		}
		for dx := int64(1); dx <= 3; dx++ {
			b := next[dx]
			for b < nr && (runs[b].x < x+dx || runs[b].x == x+dx && runs[b].y < y-3) {
				b++
			}
			next[dx] = b
			for ; b < nr && runs[b].x == x+dx && runs[b].y <= y+3; b++ {
				link(a, b)
			}
		}
	}
	for k, a := range far {
		for _, b := range far[k+1:] {
			if pts[a].Dist2(pts[b]) <= r2 {
				uf.Union(a, b)
			}
		}
		for _, c := range cells {
			if pts[a].Dist2(pts[c.i]) <= r2 {
				uf.Union(a, c.i)
			}
		}
	}

	// Group members by root in ascending index order, so each member
	// list comes out ascending and clusters appear in the order of their
	// smallest member. Every cluster's list is a capacity-capped window
	// of one shared slab, sized from its component.
	slab := make([]int, len(pts))
	slot := make([]int, len(pts)) // root → 1 + position in clusters
	clusters := make([]Cluster, 0, uf.Components())
	used := 0
	for i := range pts {
		r := uf.Find(i)
		if slot[r] == 0 {
			size := uf.ComponentSize(r)
			clusters = append(clusters, Cluster{Members: slab[used : used : used+size]})
			slot[r] = len(clusters)
			used += size
		}
		c := &clusters[slot[r]-1]
		c.Members = append(c.Members, i)
	}
	for k := range clusters {
		clusters[k].Centroid = centroidOf(pts, clusters[k].Members)
	}
	slices.SortFunc(clusters, func(a, b Cluster) int {
		if c := cmp.Compare(b.Size(), a.Size()); c != 0 {
			return c
		}
		return cmp.Compare(a.Members[0], b.Members[0])
	})
	return clusters, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// centroidOf averages the selected points.
func centroidOf(pts []geo.Point, members []int) geo.Point {
	var sx, sy float64
	for _, i := range members {
		sx += pts[i].X
		sy += pts[i].Y
	}
	n := float64(len(members))
	return geo.Point{X: sx / n, Y: sy / n}
}

// TrimOptions configures the trimming refinement.
type TrimOptions struct {
	// Radius is r_α: members farther than Radius from the running centroid
	// are discarded and available points within Radius are adopted.
	Radius float64
	// MaxIterations bounds the refine loop; the paper iterates "until no
	// more points to update", which converges quickly in practice but is
	// not guaranteed to terminate in theory. Zero selects a default of 64.
	MaxIterations int
	// Index optionally provides a prebuilt spatial index over the same pts
	// slice (ids are slice indexes). When set, the adoption pass queries
	// the index instead of scanning every point; Trim never mutates it.
	// The index's cell size need not match Radius — Grid.Within is exact
	// for any query radius.
	Index *spatial.Grid
}

// Trim implements the TRIMMING procedure of Algorithm 1. Starting from
// the initial member set, it repeatedly (a) recomputes the centroid,
// (b) drops members farther than Radius from it, and (c) adopts available
// points within Radius, until a fixpoint or the iteration bound.
//
// available reports whether a point index outside the cluster may be
// adopted (the attack passes "still unassigned"); a nil available adopts
// from all points. It returns the refined member set (ascending) and its
// centroid; an empty result means the cluster dissolved.
func Trim(pts []geo.Point, initial []int, opts TrimOptions, available func(i int) bool) ([]int, geo.Point, error) {
	if opts.Radius <= 0 {
		return nil, geo.Point{}, fmt.Errorf("cluster: trim radius %g must be positive", opts.Radius)
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 64
	}
	if len(initial) == 0 {
		return nil, geo.Point{}, nil
	}

	// Membership is an indexed bitset plus an ascending member slice;
	// centroid sums are maintained incrementally as members come and go,
	// replacing the old map[int]bool set and its full per-iteration
	// recomputation. Summation order is fixed (ascending indexes at init,
	// then the loop's own deterministic discard/adopt order), so results
	// are reproducible where map iteration order was not.
	in := make([]bool, len(pts))
	members := make([]int, 0, len(initial))
	for _, i := range initial {
		if i < 0 || i >= len(pts) {
			return nil, geo.Point{}, fmt.Errorf("cluster: member index %d out of range [0, %d)", i, len(pts))
		}
		if in[i] {
			continue
		}
		in[i] = true
		members = append(members, i)
	}
	sort.Ints(members)
	var sx, sy float64
	for _, i := range members {
		sx += pts[i].X
		sy += pts[i].Y
	}

	r2 := opts.Radius * opts.Radius
	centroid := geo.Point{X: sx / float64(len(members)), Y: sy / float64(len(members))}
	var buf []int
	for iter := 0; iter < maxIter; iter++ {
		changed := false

		// Discard members outside the radius, compacting the member slice
		// in place (ascending order is preserved).
		kept := members[:0]
		for _, i := range members {
			if pts[i].Dist2(centroid) > r2 {
				in[i] = false
				sx -= pts[i].X
				sy -= pts[i].Y
				changed = true
			} else {
				kept = append(kept, i)
			}
		}
		members = kept
		if len(members) == 0 {
			return nil, geo.Point{}, nil
		}

		// Adopt available points inside the radius, against the same
		// centroid the discard pass used.
		adoptedAt := len(members)
		if opts.Index != nil {
			buf = opts.Index.Within(buf[:0], centroid, opts.Radius)
			for _, i := range buf {
				if in[i] || (available != nil && !available(i)) {
					continue
				}
				in[i] = true
				members = append(members, i)
				sx += pts[i].X
				sy += pts[i].Y
				changed = true
			}
		} else {
			for i, p := range pts {
				if in[i] || (available != nil && !available(i)) {
					continue
				}
				if p.Dist2(centroid) <= r2 {
					in[i] = true
					members = append(members, i)
					sx += pts[i].X
					sy += pts[i].Y
					changed = true
				}
			}
		}
		if adoptedAt < len(members) {
			sort.Ints(members)
		}

		centroid = geo.Point{X: sx / float64(len(members)), Y: sy / float64(len(members))}
		if !changed {
			break
		}
	}
	return members, centroid, nil
}
