// Package spatial provides a uniform-grid spatial index over plane points
// and the union-find the connectivity clustering builds its components
// with. The grid serves three neighbour queries: the adoption pass of the
// attack's centroid trimming, the obfuscation table's top-location match,
// and radius-targeting ad matching in the LBA substrate (campaigns within
// distance R of a reported location).
package spatial

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// cellLimit saturates cell indexes: every coordinate, however far out,
// maps to a cell in [-cellLimit, cellLimit], so a query's cell range can
// always be walked without overflowing int64.
const cellLimit = 1 << 62

// cellKey identifies one grid cell.
type cellKey struct {
	ix, iy int64
}

// entry is one indexed point as its cell stores it: queries read the
// point from the cell instead of looking it up by id.
type entry struct {
	id int
	p  geo.Point
}

// Grid is a uniform-cell spatial index mapping points to integer IDs.
// IDs are caller-chosen (typically slice indexes) and unique since the
// last Reset: each point is stored once, in its cell, so the grid keeps
// no per-id record to find, move or delete a point by. The zero value
// is not usable; construct with NewGrid.
type Grid struct {
	cell  float64
	cells map[cellKey][]entry
	n     int // points inserted since the last Reset
}

// NewGrid builds an index with the given cell size in metres. Neighbour
// queries are most efficient when the query radius is close to cellSize.
func NewGrid(cellSize float64) (*Grid, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("spatial: cell size %g must be positive and finite", cellSize)
	}
	return &Grid{cell: cellSize, cells: make(map[cellKey][]entry)}, nil
}

// CellSize returns the configured cell edge length.
func (g *Grid) CellSize() float64 { return g.cell }

// Reset empties the index while retaining the cell map's bucket
// storage, so a grid can be reused across many similar-scale point sets
// (the attack indexes each user's check-ins in turn) without paying the
// map-growth rehashing of a fresh NewGrid on every call.
func (g *Grid) Reset() {
	clear(g.cells)
	g.n = 0
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.n }

// index returns floor(v / cell) saturated at ±cellLimit (NaN maps to
// -cellLimit). A saturated cell may hold far-apart points, but every
// query hit is distance-checked. The index never decreases as v grows,
// which is what makes the query ranges of Within exact.
func (g *Grid) index(v float64) int64 {
	f := math.Floor(v / g.cell)
	switch {
	case f >= cellLimit:
		return cellLimit
	case f > -cellLimit:
		return int64(f)
	default:
		return -cellLimit
	}
}

func (g *Grid) key(p geo.Point) cellKey {
	return cellKey{ix: g.index(p.X), iy: g.index(p.Y)}
}

// box returns the corner cells of the square of half-side radius around
// q, or ok=false when radius is negative, NaN or infinite (such a query
// matches nothing). A point within radius of q has each coordinate
// within radius of q's, so by the monotonicity of index its cell lies in
// the box however far out the points are.
func (g *Grid) box(q geo.Point, radius float64) (lo, hi cellKey, ok bool) {
	if !(radius >= 0) || math.IsInf(radius, 1) {
		return lo, hi, false
	}
	lo = g.key(geo.Point{X: q.X - radius, Y: q.Y - radius})
	hi = g.key(geo.Point{X: q.X + radius, Y: q.Y + radius})
	return lo, hi, true
}

// Insert adds a point under id, which must not have been inserted since
// the last Reset: a repeated id is indexed twice and reported twice.
func (g *Grid) Insert(id int, p geo.Point) {
	k := g.key(p)
	g.cells[k] = append(g.cells[k], entry{id: id, p: p})
	g.n++
}

// Within appends to dst the ids of all points within radius of q
// (inclusive) and returns the extended slice. Hits come cell by cell in
// ascending (x, y) cell order, each cell in insertion order.
func (g *Grid) Within(dst []int, q geo.Point, radius float64) []int {
	lo, hi, ok := g.box(q, radius)
	if !ok {
		return dst
	}
	r2 := radius * radius
	for ix := lo.ix; ix <= hi.ix; ix++ {
		for iy := lo.iy; iy <= hi.iy; iy++ {
			for _, e := range g.cells[cellKey{ix, iy}] {
				if e.p.Dist2(q) <= r2 {
					dst = append(dst, e.id)
				}
			}
		}
	}
	return dst
}

// ForEachWithin invokes fn for every indexed point within radius of q,
// in Within's order. fn must not mutate the grid.
func (g *Grid) ForEachWithin(q geo.Point, radius float64, fn func(id int, p geo.Point)) {
	lo, hi, ok := g.box(q, radius)
	if !ok {
		return
	}
	r2 := radius * radius
	for ix := lo.ix; ix <= hi.ix; ix++ {
		for iy := lo.iy; iy <= hi.iy; iy++ {
			for _, e := range g.cells[cellKey{ix, iy}] {
				if e.p.Dist2(q) <= r2 {
					fn(e.id, e.p)
				}
			}
		}
	}
}

// UnionFind is a weighted quick-union structure with path compression,
// used by the connectivity clustering of profiles and of the
// de-obfuscation attack.
type UnionFind struct {
	parent []int
	size   []int
	comps  int
}

// NewUnionFind creates n singleton components labelled 0..n-1.
func NewUnionFind(n int) *UnionFind {
	if n < 0 {
		n = 0
	}
	uf := &UnionFind{
		parent: make([]int, n),
		size:   make([]int, n),
		comps:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

// Find returns the component representative of x.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the components of a and b; it reports whether a merge
// happened (false when already connected).
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.comps--
	return true
}

// Connected reports whether a and b share a component.
func (u *UnionFind) Connected(a, b int) bool { return u.Find(a) == u.Find(b) }

// ComponentSize returns the size of x's component.
func (u *UnionFind) ComponentSize(x int) int { return u.size[u.Find(x)] }

// Components returns the number of distinct components.
func (u *UnionFind) Components() int { return u.comps }

// Len returns the number of elements.
func (u *UnionFind) Len() int { return len(u.parent) }
