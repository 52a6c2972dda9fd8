package secagg

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/profile"
)

// plainMerge is the plaintext reference for MergeProfiles: the in-region
// positive frequencies summed per cell modulo 2⁶⁴ with no masking at
// all, decoded to cell centres and sorted by descending frequency, then
// X, then Y. A point exactly on MaxX or MaxY falls in the last column or
// row. ok is false when some cell's sum is implausible.
func plainMerge(g *GridCodec, parts []profile.Profile) (merged profile.Profile, dropped int, ok bool) {
	r := g.region
	sums := make(map[int]uint64)
	for _, part := range parts {
		for _, lf := range part {
			if lf.Freq <= 0 {
				continue
			}
			p := lf.Loc
			if !(p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY) {
				dropped++
				continue
			}
			cx := min(int((p.X-r.MinX)/g.cell), g.cols-1)
			cy := min(int((p.Y-r.MinY)/g.cell), g.rows-1)
			sums[cy*g.cols+cx] += uint64(lf.Freq)
		}
	}
	for idx, sum := range sums {
		if sum == 0 {
			continue
		}
		if sum > math.MaxInt32 {
			return nil, dropped, false
		}
		merged = append(merged, profile.LocationFreq{
			Loc: geo.Point{
				X: r.MinX + (float64(idx%g.cols)+0.5)*g.cell,
				Y: r.MinY + (float64(idx/g.cols)+0.5)*g.cell,
			},
			Freq: int(sum),
		})
	}
	slices.SortFunc(merged, func(a, b profile.LocationFreq) int {
		return cmp.Or(cmp.Compare(b.Freq, a.Freq), cmp.Compare(a.Loc.X, b.Loc.X), cmp.Compare(a.Loc.Y, b.Loc.Y))
	})
	return merged, dropped, true
}

// maxFuzzCells caps the grid of a fuzz input so the per-party reference
// shares stay cheap.
const maxFuzzCells = 1 << 12

// decodeFuzzParts reads consecutive 25-byte records, each a party index
// byte (taken modulo parties), a location's X and Y as little-endian
// float64 bits and its frequency as a little-endian int64; a trailing
// partial record is ignored. A party no record names keeps a nil
// partial, like an edge that never saw the user.
func decodeFuzzParts(parties int, data []byte) []profile.Profile {
	parts := make([]profile.Profile, parties)
	for ; len(data) >= 25; data = data[25:] {
		p := int(data[0]) % parties
		parts[p] = append(parts[p], profile.LocationFreq{
			Loc: geo.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(data[1:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(data[9:])),
			},
			Freq: int(int64(binary.LittleEndian.Uint64(data[17:]))),
		})
	}
	return parts
}

// FuzzSecureMerge checks the one-pass merge on 2–8 parties (parties-2
// taken modulo 7), an arbitrary region, cell size and session seed, and
// points decoded by decodeFuzzParts: every masked row must equal the
// party's reference share, and the merged profile, the dropped count and
// whether the merge fails must equal the plaintext reference. The
// committed seeds in testdata/fuzz/FuzzSecureMerge are two parties, one
// with a nil partial; eight parties; points exactly on MaxX and MaxY;
// NaN, ±Inf and out-of-region points; zero and negative frequencies; a
// cell larger than the region; and three 2³¹ counts in one cell.
func FuzzSecureMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, parties int, minX, minY, maxX, maxY, cell float64, seed uint64, points []byte) {
		n := 2 + int(uint(parties-2)%7)
		parts := decodeFuzzParts(n, points)
		region := geo.BBox{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
		g, err := NewGridCodec(region, cell)
		if err != nil {
			if _, _, err := MergeProfiles(parts, region, cell, seed); err == nil {
				t.Fatalf("region %+v cell %g: codec rejected it but the merge did not", region, cell)
			}
			return
		}
		if g.Length() > maxFuzzCells {
			return
		}

		rows := make(Vector, n*g.Length())
		for i, part := range parts {
			g.encode(rows[i*g.Length():(i+1)*g.Length()], part)
		}
		plain := slices.Clone(rows)
		s, err := NewSession(n, g.Length(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Mask(rows); err != nil {
			t.Fatal(err)
		}
		checkShares(t, seed, n, plain, rows)

		got, dropped, err := MergeProfiles(parts, region, cell, seed)
		want, wantDropped, ok := plainMerge(g, parts)
		switch {
		case !ok:
			if err == nil {
				t.Fatalf("implausible aggregate accepted: %+v", got)
			}
		case err != nil:
			t.Fatalf("merge failed: %v", err)
		case dropped != wantDropped:
			t.Fatalf("dropped %d, plaintext reference %d", dropped, wantDropped)
		case !slices.Equal(got, want):
			t.Fatalf("merged %+v, plaintext reference %+v", got, want)
		}
	})
}
