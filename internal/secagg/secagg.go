// Package secagg implements the secure multi-party aggregation the paper
// invokes for merging a user's partial location profiles across edge
// devices (Section V-B: "this step can be accomplished through a secure
// multi-party computation protocol").
//
// The protocol is pairwise additive masking (the core of Bonawitz et al.
// secure aggregation, without dropout recovery): every ordered pair of
// parties (i < j) derives a shared mask vector from a pairwise seed;
// party i adds the mask, party j subtracts it. Each party publishes only
// its masked vector; the masks cancel in the sum, so the aggregator
// learns exactly Σᵢ vᵢ and nothing about any individual vᵢ (each
// published vector is one-time-pad masked modulo 2⁶⁴). The pad is fresh
// per round: the masks depend only on the session seed and the pair, so
// every round runs under its own seed, which edgecluster derives from
// the version the round is journaled under. A reused seed would make it
// a two-time pad: two shares of one party would differ by exactly the
// difference of its two plaintexts.
//
// Location profiles are carried as grid histograms (GridCodec): counts
// over fixed cells of the agreed region, which makes profile addition
// well-defined across parties.
package secagg

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/randx"
)

// Protocol errors.
var (
	// ErrParticipants reports an invalid party count or index.
	ErrParticipants = errors.New("secagg: invalid participants")
	// ErrVectorLength reports mismatched vector lengths.
	ErrVectorLength = errors.New("secagg: vector length mismatch")
)

// Vector is an additive-share vector over Z_{2^64}.
type Vector []uint64

// Session is one aggregation round among a fixed set of parties over
// vectors of a fixed length. Pairwise seeds are derived deterministically
// from a session seed; in a deployment they would come from a key
// agreement, which is orthogonal to the aggregation algebra tested here.
type Session struct {
	parties int
	length  int
	seed    uint64
}

// NewSession creates a round for the given number of parties and vector
// length.
func NewSession(parties, length int, seed uint64) (*Session, error) {
	if parties < 2 {
		return nil, fmt.Errorf("%w: %d parties (need at least 2)", ErrParticipants, parties)
	}
	if length <= 0 {
		return nil, fmt.Errorf("%w: vector length %d", ErrVectorLength, length)
	}
	return &Session{parties: parties, length: length, seed: seed}, nil
}

// Mask turns every party's private vector into its published share, in
// place. rows holds party i's vector at rows[i·length : (i+1)·length].
// The mask of each pair (i, j), i < j, is drawn once from the pair's
// stream — which both parties can compute and nobody else holds — and
// added to row i and subtracted from row j, so each row ends as its
// vector plus the masks shared with higher-indexed parties minus those
// shared with lower-indexed ones.
func (s *Session) Mask(rows Vector) error {
	if len(rows) != s.parties*s.length {
		return fmt.Errorf("%w: got %d, session uses %d parties × %d", ErrVectorLength, len(rows), s.parties, s.length)
	}
	for i := 0; i < s.parties; i++ {
		lo := rows[i*s.length : (i+1)*s.length]
		for j := i + 1; j < s.parties; j++ {
			hi := rows[j*s.length:][:len(lo)]
			rnd := randx.New(s.seed, (uint64(i)<<32)|uint64(j)|0x5EC466<<40)
			for k := range lo {
				m := rnd.Uint64()
				lo[k] += m
				hi[k] -= m
			}
		}
	}
	return nil
}

// GridCodec encodes location profiles as count histograms over a fixed
// grid, the vector form the aggregation runs on.
type GridCodec struct {
	region geo.BBox
	cell   float64
	cols   int
	rows   int
}

// NewGridCodec builds a codec over region with the given cell edge.
func NewGridCodec(region geo.BBox, cell float64) (*GridCodec, error) {
	if region.Width() <= 0 || region.Height() <= 0 {
		return nil, fmt.Errorf("secagg: degenerate region %+v", region)
	}
	if !(cell > 0) || math.IsInf(cell, 0) {
		return nil, fmt.Errorf("secagg: cell size %g must be positive and finite", cell)
	}
	cols := int(math.Ceil(region.Width() / cell))
	rows := int(math.Ceil(region.Height() / cell))
	if cols <= 0 || rows <= 0 || cols*rows > 1<<26 {
		return nil, fmt.Errorf("secagg: grid %dx%d out of range (shrink the region or grow the cell)", cols, rows)
	}
	return &GridCodec{region: region, cell: cell, cols: cols, rows: rows}, nil
}

// Length returns the encoded vector length.
func (g *GridCodec) Length() int { return g.cols * g.rows }

// cellIndex maps a point to its vector slot; ok is false outside the
// region.
func (g *GridCodec) cellIndex(p geo.Point) (int, bool) {
	if !g.region.Contains(p) {
		return 0, false
	}
	cx := int((p.X - g.region.MinX) / g.cell)
	cy := int((p.Y - g.region.MinY) / g.cell)
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx, true
}

// cellCenter returns the centre point of a vector slot.
func (g *GridCodec) cellCenter(idx int) geo.Point {
	cx := idx % g.cols
	cy := idx / g.cols
	return geo.Point{
		X: g.region.MinX + (float64(cx)+0.5)*g.cell,
		Y: g.region.MinY + (float64(cy)+0.5)*g.cell,
	}
}

// encode adds profile p's histogram into row, which must hold Length()
// slots. Locations outside the region are dropped and counted; zero and
// negative frequencies are ignored.
func (g *GridCodec) encode(row Vector, p profile.Profile) (dropped int) {
	for _, lf := range p {
		if lf.Freq <= 0 {
			continue
		}
		idx, ok := g.cellIndex(lf.Loc)
		if !ok {
			dropped++
			continue
		}
		row[idx] += uint64(lf.Freq)
	}
	return dropped
}

// aggregate is the aggregator's step: it sums the published shares —
// consecutive rows of Length() slots — and decodes the total in the same
// scan over cells into a profile whose locations are cell centres
// (quantized to cell resolution), ordered by descending frequency.
func (g *GridCodec) aggregate(rows Vector) (profile.Profile, error) {
	n := g.Length()
	var p profile.Profile
	for idx := 0; idx < n; idx++ {
		var count uint64
		for k := idx; k < len(rows); k += n {
			count += rows[k]
		}
		if count == 0 {
			continue
		}
		if count > math.MaxInt32 {
			return nil, fmt.Errorf("secagg: cell %d count %d implausible (corrupted aggregate?)", idx, count)
		}
		p = append(p, profile.LocationFreq{Loc: g.cellCenter(idx), Freq: int(count)})
	}
	sortProfile(p)
	return p, nil
}

// sortProfile orders by descending frequency with coordinate tie-breaks.
func sortProfile(p profile.Profile) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0; j-- {
			a, b := p[j-1], p[j]
			better := b.Freq > a.Freq ||
				(b.Freq == a.Freq && (b.Loc.X < a.Loc.X || (b.Loc.X == a.Loc.X && b.Loc.Y < a.Loc.Y)))
			if !better {
				break
			}
			p[j-1], p[j] = b, a
		}
	}
}

// slabs recycles the parties × cells share slab across merges: a merge
// region's slab is hundreds of kilobytes and a cluster merges every few
// batches of a user, so a slab per round would dominate its garbage.
var slabs sync.Pool // of *Vector

// MergeProfiles runs the whole protocol in one pass over one slab: each
// party encodes its partial profile into its row, the pairwise masks
// turn the rows into published shares, and the aggregator sums the
// shares and decodes the total. It returns the merged profile at cell
// resolution plus the number of locations dropped for lying outside the
// region. seed must be fresh for every round (see the package comment).
// The slab is pooled across calls, so a merge allocates no grid.
func MergeProfiles(parts []profile.Profile, region geo.BBox, cell float64, seed uint64) (profile.Profile, int, error) {
	codec, err := NewGridCodec(region, cell)
	if err != nil {
		return nil, 0, fmt.Errorf("building codec: %w", err)
	}
	if len(parts) < 2 {
		return nil, 0, fmt.Errorf("%w: %d parties (need at least 2)", ErrParticipants, len(parts))
	}
	n := codec.Length()
	session, err := NewSession(len(parts), n, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("building session: %w", err)
	}
	slab, _ := slabs.Get().(*Vector)
	if slab == nil || cap(*slab) < len(parts)*n {
		slab = new(Vector)
		*slab = make(Vector, len(parts)*n)
	} else {
		*slab = (*slab)[:len(parts)*n]
		clear(*slab)
	}
	defer slabs.Put(slab)
	rows := *slab
	dropped := 0
	for i, part := range parts {
		dropped += codec.encode(rows[i*n:(i+1)*n], part)
	}
	if err := session.Mask(rows); err != nil {
		return nil, 0, fmt.Errorf("masking shares: %w", err)
	}
	merged, err := codec.aggregate(rows)
	if err != nil {
		return nil, 0, fmt.Errorf("decoding aggregate: %w", err)
	}
	return merged, dropped, nil
}
