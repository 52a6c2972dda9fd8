// Package secagg implements the secure multi-party aggregation the paper
// invokes for merging a user's partial location profiles across edge
// devices (Section V-B: "this step can be accomplished through a secure
// multi-party computation protocol").
//
// The protocol is pairwise additive masking (the core of Bonawitz et al.
// secure aggregation, without dropout recovery): every pair of parties
// (i < j) expands a shared key into a mask vector; party i adds the
// mask, party j subtracts it. Each party publishes only its masked
// vector; the masks cancel in the sum, so the aggregator learns exactly
// Σᵢ vᵢ and nothing about any individual vᵢ. That holds only if each
// mask is indistinguishable from uniform to whoever lacks the pair's
// key, so the expansion is a cryptographic PRG: AES-128 in counter mode
// (crypto/aes, hardware AES where the CPU has it). In a two-party round
// a party's share at every cell it left empty is the pair's keystream
// itself, which a statistical generator would hand over in the clear.
//
// The pad is fresh per round: the pair keys derive from the session seed
// and the pair, so every round runs under its own seed, which
// edgecluster derives from the version the round is journaled under. A
// reused seed would make it a two-time pad: two shares of one party
// would differ by exactly the difference of its two plaintexts.
//
// Location profiles are carried as grid histograms (GridCodec): counts
// over fixed cells of the agreed region, which makes profile addition
// well-defined across parties.
package secagg

import (
	"cmp"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/profile"
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
// vectors of a fixed length. Pair keys are derived deterministically
// from a session seed (pairStream); in a deployment they would come from
// a key agreement, which is orthogonal to the aggregation algebra tested
// here.
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

// maskDomain prefixes every pair-key derivation, so no other key derived
// from a session seed can coincide with a mask key.
const maskDomain = "repro/secagg pairwise mask v1"

// pairStream returns the keystream of pair (i, j) under seed: AES-128 in
// counter mode from the all-zero counter block, keyed by the first 16
// bytes of SHA-256(maskDomain ‖ seed ‖ i ‖ j), each number 8 bytes little
// endian. Mask word k of the pair is keystream bytes [8k, 8k+8) read
// little endian, so the mask is a pure function of (seed, i, j), and
// distinct pairs or seeds run under unrelated keys.
func pairStream(seed uint64, i, j int) cipher.Stream {
	var in [len(maskDomain) + 24]byte
	n := copy(in[:], maskDomain)
	binary.LittleEndian.PutUint64(in[n:], seed)
	binary.LittleEndian.PutUint64(in[n+8:], uint64(i))
	binary.LittleEndian.PutUint64(in[n+16:], uint64(j))
	key := sha256.Sum256(in[:])
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		panic(err) // unreachable: 16 bytes is an AES-128 key
	}
	return cipher.NewCTR(block, zeroIV[:])
}

// chunkWords is how many mask words a pair's keystream yields at a time:
// 4 KiB, which stays in the L1 cache together with the rows' slices it
// is added to and subtracted from.
const chunkWords = 512

// zeroChunk is the plaintext the keystream is XORed onto, so what comes
// out is the keystream itself.
var zeroChunk [8 * chunkWords]byte

// zeroIV is the counter block every pair's keystream starts from; each
// pair has a key of its own.
var zeroIV [aes.BlockSize]byte

// maskScratch is what one Mask call works in: the pairs' keystreams and
// the chunk they are drawn into.
type maskScratch struct {
	streams []cipher.Stream
	chunk   [8 * chunkWords]byte
}

// scratches recycles mask scratch across calls.
var scratches = sync.Pool{New: func() any { return new(maskScratch) }}

// Mask turns every party's private vector into its published share, in
// place. rows holds party i's vector at rows[i·length : (i+1)·length].
// The mask of each pair (i, j), i < j, is drawn once from the pair's
// keystream — which both parties can compute and nobody else holds —
// and added to row i and subtracted from row j, so each row ends as its
// vector plus the masks shared with higher-indexed parties minus those
// shared with lower-indexed ones. The rows are masked one column chunk
// at a time, every pair's chunk in turn, so each slice of a row is
// brought into the cache once for all the pairs it is in.
func (s *Session) Mask(rows Vector) error {
	if len(rows) != s.parties*s.length {
		return fmt.Errorf("%w: got %d, session uses %d parties × %d", ErrVectorLength, len(rows), s.parties, s.length)
	}
	sc := scratches.Get().(*maskScratch)
	defer func() {
		clear(sc.streams)
		sc.streams = sc.streams[:0]
		scratches.Put(sc)
	}()
	for i := 0; i < s.parties; i++ {
		for j := i + 1; j < s.parties; j++ {
			sc.streams = append(sc.streams, pairStream(s.seed, i, j))
		}
	}
	for off := 0; off < s.length; off += chunkWords {
		n := min(chunkWords, s.length-off)
		ks := sc.chunk[:8*n]
		pair := 0
		for i := 0; i < s.parties; i++ {
			lo := rows[i*s.length+off:][:n]
			for j := i + 1; j < s.parties; j++ {
				sc.streams[pair].XORKeyStream(ks, zeroChunk[:len(ks)])
				pair++
				addSub(lo, rows[j*s.length+off:][:n], ks)
			}
		}
	}
	return nil
}

// addSub adds mask word k, bytes [8k, 8k+8) of ks read little endian, to
// lo[k] and subtracts it from hi[k], four words at a time.
func addSub(lo, hi Vector, ks []byte) {
	hi = hi[:len(lo)]
	ks = ks[:8*len(lo)]
	for len(lo) >= 4 && len(hi) >= 4 && len(ks) >= 32 {
		m0 := binary.LittleEndian.Uint64(ks[0:])
		m1 := binary.LittleEndian.Uint64(ks[8:])
		m2 := binary.LittleEndian.Uint64(ks[16:])
		m3 := binary.LittleEndian.Uint64(ks[24:])
		lo[0] += m0
		lo[1] += m1
		lo[2] += m2
		lo[3] += m3
		hi[0] -= m0
		hi[1] -= m1
		hi[2] -= m2
		hi[3] -= m3
		lo, hi, ks = lo[4:], hi[4:], ks[32:]
	}
	for k := range lo {
		m := binary.LittleEndian.Uint64(ks[8*k:])
		lo[k] += m
		hi[k] -= m
	}
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
// consecutive rows of Length() slots — row by row into the first row,
// then decodes the total in one scan over cells into a profile whose
// locations are cell centres (quantized to cell resolution), ordered by
// descending frequency. The pass that adds the last row also counts the
// cells it leaves non-zero, so the profile is allocated once, at its
// size; with no such cell it is nil. The first row is left holding the
// total.
func (g *GridCodec) aggregate(rows Vector) (profile.Profile, error) {
	total := rows[:g.Length()]
	cells := 0
	for r := len(total); r < len(rows); r += len(total) {
		row := rows[r:][:len(total)]
		if r+len(total) < len(rows) {
			for k, v := range row {
				total[k] += v
			}
			continue
		}
		for k, v := range row {
			if total[k] += v; total[k] != 0 {
				cells++
			}
		}
	}
	var p profile.Profile
	if cells > 0 {
		p = make(profile.Profile, 0, cells)
	}
	for idx, count := range total {
		if count == 0 {
			continue
		}
		if count > math.MaxInt32 {
			return nil, fmt.Errorf("secagg: cell %d count %d implausible (corrupted aggregate?)", idx, count)
		}
		p = append(p, profile.LocationFreq{Loc: g.cellCenter(idx), Freq: int(count)})
	}
	slices.SortFunc(p, byFreqThenPlace)
	return p, nil
}

// byFreqThenPlace orders by descending frequency, then ascending X, then
// ascending Y. Two cells that compare equal carry the same frequency and
// centre, so they are equal values and an unstable sort gives one order.
func byFreqThenPlace(a, b profile.LocationFreq) int {
	return cmp.Or(cmp.Compare(b.Freq, a.Freq), cmp.Compare(a.Loc.X, b.Loc.X), cmp.Compare(a.Loc.Y, b.Loc.Y))
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
