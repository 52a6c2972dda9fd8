package secagg

import (
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/randx"
)

func testRegion() geo.BBox {
	return geo.BBox{MinX: 0, MinY: 0, MaxX: 10_000, MaxY: 10_000}
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// random quarter of the values put back.
var raceEnabled bool

// referenceKeystream is the first words mask words of pair (i, j) under
// seed, spelled out from the definition pairStream implements: the pair
// key is the first 16 bytes of SHA-256(maskDomain ‖ seed ‖ i ‖ j), and
// the keystream is AES-128 of the big-endian counter blocks 0, 1, 2, …,
// read as little-endian words.
func referenceKeystream(seed uint64, i, j, words int) []uint64 {
	in := append([]byte(maskDomain), make([]byte, 24)...)
	binary.LittleEndian.PutUint64(in[len(maskDomain):], seed)
	binary.LittleEndian.PutUint64(in[len(maskDomain)+8:], uint64(i))
	binary.LittleEndian.PutUint64(in[len(maskDomain)+16:], uint64(j))
	key := sha256.Sum256(in)
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		panic(err)
	}
	out := make([]uint64, 0, words+1)
	var ctr, ks [aes.BlockSize]byte
	for c := uint64(0); len(out) < words; c++ {
		binary.BigEndian.PutUint64(ctr[8:], c)
		block.Encrypt(ks[:], ctr[:])
		out = append(out, binary.LittleEndian.Uint64(ks[:8]), binary.LittleEndian.Uint64(ks[8:]))
	}
	return out[:words]
}

// referenceShare is party's published share computed the per-party way
// Mask replaced, kept as the reference Mask is checked against: its
// vector plus the mask of every pair it shares with a higher-indexed
// party, minus the mask of every pair it shares with a lower-indexed
// one, each mask drawn in full from the pair's reference keystream.
func referenceShare(seed uint64, parties, party int, v Vector) Vector {
	out := slices.Clone(v)
	for other := 0; other < parties; other++ {
		if other == party {
			continue
		}
		i, j := min(party, other), max(party, other)
		for k, m := range referenceKeystream(seed, i, j, len(out)) {
			if party < other {
				out[k] += m
			} else {
				out[k] -= m
			}
		}
	}
	return out
}

// checkShares fails t unless every row of masked equals the reference
// share of the matching row of plain.
func checkShares(t *testing.T, seed uint64, parties int, plain, masked Vector) {
	t.Helper()
	n := len(plain) / parties
	for p := 0; p < parties; p++ {
		want := referenceShare(seed, parties, p, plain[p*n:(p+1)*n])
		if got := masked[p*n : (p+1)*n]; !slices.Equal(got, want) {
			t.Fatalf("parties=%d length=%d: row %d differs from the reference share", parties, n, p)
		}
	}
}

// drawKeystream reads words mask words from pair (i, j)'s keystream
// under seed in pieces of step bytes.
func drawKeystream(seed uint64, i, j, words, step int) []uint64 {
	ks := pairStream(seed, i, j)
	b := make([]byte, 8*words)
	for off := 0; off < len(b); off += step {
		piece := b[off:min(off+step, len(b))]
		ks.XORKeyStream(piece, make([]byte, len(piece)))
	}
	out := make([]uint64, words)
	for k := range out {
		out[k] = binary.LittleEndian.Uint64(b[8*k:])
	}
	return out
}

// TestPairKeystream: a pair's keystream is a pure function of (seed, i,
// j) — the same words however it is drawn, equal to the reference spelled
// out from AES-128 and SHA-256 — and no two pairs of one session, and no
// pair under two neighbouring seeds, share a word at any position of
// their first chunk, so none shares a prefix.
func TestPairKeystream(t *testing.T) {
	const words = chunkWords + 3
	for _, seed := range []uint64{0, 1, 99, math.MaxUint64} {
		for _, pair := range [][2]int{{0, 1}, {0, 7}, {3, 5}} {
			i, j := pair[0], pair[1]
			want := referenceKeystream(seed, i, j, words)
			for _, step := range []int{1, 7, 16, 4096, 8 * words} {
				if got := drawKeystream(seed, i, j, words, step); !slices.Equal(got, want) {
					t.Fatalf("seed %d pair (%d, %d) drawn %d bytes at a time differs from the reference keystream", seed, i, j, step)
				}
			}
		}
	}

	type stream struct {
		name  string
		words []uint64
	}
	var streams []stream
	for _, seed := range []uint64{41, 42} {
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				streams = append(streams, stream{fmt.Sprintf("seed %d pair (%d, %d)", seed, i, j), drawKeystream(seed, i, j, chunkWords, 8*chunkWords)})
			}
		}
	}
	for a := range streams {
		for b := a + 1; b < len(streams); b++ {
			for k := range chunkWords {
				if streams[a].words[k] == streams[b].words[k] {
					t.Fatalf("%s and %s agree at word %d", streams[a].name, streams[b].name, k)
				}
			}
		}
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(1, 10, 1); err == nil {
		t.Error("1 party expected error")
	}
	if _, err := NewSession(3, 0, 1); err == nil {
		t.Error("zero length expected error")
	}
	s, err := NewSession(3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Mask(make(Vector, 3*10)); err != nil {
		t.Errorf("3 rows of 10 rejected: %v", err)
	}
}

// TestMaskCancellation is the protocol's core correctness property: each
// masked row is exactly the share the per-party protocol publishes, and
// the sum of the rows equals the sum of the plaintext vectors.
func TestMaskCancellation(t *testing.T) {
	rnd := randx.New(1, 1)
	for _, parties := range []int{2, 3, 5, 8} {
		for _, length := range []int{1, 64, 7_200} {
			s, err := NewSession(parties, length, 99)
			if err != nil {
				t.Fatal(err)
			}
			plain := make(Vector, parties*length)
			want := make(Vector, length)
			for k := range plain {
				plain[k] = uint64(rnd.IntN(1000))
				want[k%length] += plain[k]
			}
			rows := slices.Clone(plain)
			if err := s.Mask(rows); err != nil {
				t.Fatal(err)
			}
			checkShares(t, 99, parties, plain, rows)
			got := make(Vector, length)
			for k := range rows {
				got[k%length] += rows[k]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("parties=%d length=%d: masked rows do not sum to the plaintext sum", parties, length)
			}
		}
	}
}

// TestMaskingHidesInput: a single published share must differ from the
// plaintext in essentially every slot (it is one-time-pad masked).
func TestMaskingHidesInput(t *testing.T) {
	const length = 256
	s, err := NewSession(3, length, 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(Vector, 3*length) // all zeros: any unchanged slot would leak
	if err := s.Mask(rows); err != nil {
		t.Fatal(err)
	}
	unchanged := 0
	for _, v := range rows[:length] {
		if v == 0 {
			unchanged++
		}
	}
	if unchanged > 2 {
		t.Errorf("%d of %d slots unmasked", unchanged, length)
	}
}

// TestSharesUniformity: masked shares of identical inputs from different
// parties must differ (each party's mask pattern is distinct).
func TestSharesUniformity(t *testing.T) {
	const length = 64
	s, err := NewSession(4, length, 13)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(Vector, 4*length)
	for k := range rows {
		rows[k] = 42
	}
	if err := s.Mask(rows); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for p := 0; p < 4; p++ {
		if first := rows[p*length]; seen[first] {
			t.Errorf("party %d first slot collides", p)
		} else {
			seen[first] = true
		}
	}
}

// TestMaskedInputErrors: Mask takes exactly one row per party.
func TestMaskedInputErrors(t *testing.T) {
	s, err := NewSession(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 4, 7, 9, 12} {
		if err := s.Mask(make(Vector, n)); err == nil {
			t.Errorf("%d slots for 2 rows of 4 expected error", n)
		}
	}
}

func TestNewGridCodecValidation(t *testing.T) {
	if _, err := NewGridCodec(geo.BBox{}, 100); err == nil {
		t.Error("empty region expected error")
	}
	if _, err := NewGridCodec(testRegion(), 0); err == nil {
		t.Error("zero cell expected error")
	}
	if _, err := NewGridCodec(testRegion(), 0.001); err == nil {
		t.Error("absurd grid size expected error")
	}
	g, err := NewGridCodec(testRegion(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.Length() != 100*100 {
		t.Errorf("Length = %d", g.Length())
	}
}

func TestGridCodecRoundTrip(t *testing.T) {
	g, err := NewGridCodec(testRegion(), 100)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Profile{
		{Loc: geo.Point{X: 150, Y: 250}, Freq: 10},
		{Loc: geo.Point{X: 5050, Y: 5050}, Freq: 5},
		{Loc: geo.Point{X: -999, Y: 0}, Freq: 3}, // outside: dropped
		{Loc: geo.Point{X: 10, Y: 10}, Freq: 0},  // zero: ignored
	}
	row := make(Vector, g.Length())
	if dropped := g.encode(row, p); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	back, err := g.aggregate(row)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("decoded %d locations, want 2", len(back))
	}
	if back[0].Freq != 10 || back[1].Freq != 5 {
		t.Errorf("decoded freqs = %d, %d", back[0].Freq, back[1].Freq)
	}
	// Locations quantized to cell centres: within cell/√2 of the truth.
	if d := back[0].Loc.Dist(geo.Point{X: 150, Y: 250}); d > 100*math.Sqrt2/2 {
		t.Errorf("decoded location %g m off", d)
	}
}

func TestGridCodecDecodeErrors(t *testing.T) {
	g, err := NewGridCodec(testRegion(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(Vector, 2*g.Length())
	rows[0] = math.MaxUint64 - 5 // an uncancelled mask residue
	if _, err := g.aggregate(rows); err == nil {
		t.Error("implausible count expected error")
	}
	rows[g.Length()] = 7 // the residue's other half: 1 in total
	back, err := g.aggregate(rows)
	if err != nil || len(back) != 1 || back[0].Freq != 1 {
		t.Errorf("aggregate across rows = %+v, %v; want one location of 1", back, err)
	}
}

// TestMergeProfilesMatchesPlaintext: the secure merge must equal the
// plaintext profile merge up to grid quantization.
func TestMergeProfilesMatchesPlaintext(t *testing.T) {
	region := testRegion()
	partA := profile.Profile{
		{Loc: geo.Point{X: 1000, Y: 1000}, Freq: 60},
		{Loc: geo.Point{X: 8000, Y: 2000}, Freq: 20},
	}
	partB := profile.Profile{
		{Loc: geo.Point{X: 1010, Y: 1010}, Freq: 30}, // same cell as A's home
		{Loc: geo.Point{X: 3000, Y: 9000}, Freq: 10},
	}
	merged, dropped, err := MergeProfiles([]profile.Profile{partA, partB}, region, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
	}
	if merged.Total() != 120 {
		t.Errorf("total = %d, want 120", merged.Total())
	}
	if merged[0].Freq != 90 {
		t.Errorf("top freq = %d, want merged 90", merged[0].Freq)
	}
	if d := merged[0].Loc.Dist(geo.Point{X: 1000, Y: 1000}); d > 50 {
		t.Errorf("merged home %g m off", d)
	}
}

func TestMergeProfilesErrors(t *testing.T) {
	if _, _, err := MergeProfiles([]profile.Profile{{}}, testRegion(), 50, 1); err == nil {
		t.Error("single party expected error")
	}
	if _, _, err := MergeProfiles([]profile.Profile{{}, {}}, geo.BBox{}, 50, 1); err == nil {
		t.Error("bad region expected error")
	}
}

// TestMergeProfilesTotalProperty: the merged total equals the in-region
// plaintext total for random inputs.
func TestMergeProfilesTotalProperty(t *testing.T) {
	region := testRegion()
	f := func(rawFreqs []uint16, seed uint64) bool {
		if len(rawFreqs) == 0 {
			return true
		}
		rnd := randx.New(seed, 3)
		parts := make([]profile.Profile, 3)
		want := 0
		for i, raw := range rawFreqs {
			freq := int(raw%500) + 1
			want += freq
			parts[i%3] = append(parts[i%3], profile.LocationFreq{
				Loc:  geo.Point{X: rnd.Float64() * 10_000, Y: rnd.Float64() * 10_000},
				Freq: freq,
			})
		}
		merged, dropped, err := MergeProfiles(parts, region, 200, seed)
		if err != nil {
			return false
		}
		return dropped == 0 && merged.Total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomParts draws parties partial profiles of locs locations each,
// uniform over region.
func randomParts(rnd *randx.Rand, parties, locs int, region geo.BBox) []profile.Profile {
	parts := make([]profile.Profile, parties)
	for i := range parts {
		for l := 0; l < locs; l++ {
			parts[i] = append(parts[i], profile.LocationFreq{
				Loc: geo.Point{
					X: region.MinX + rnd.Float64()*region.Width(),
					Y: region.MinY + rnd.Float64()*region.Height(),
				},
				Freq: 1 + rnd.IntN(100),
			})
		}
	}
	return parts
}

// TestMergeAllocatesNoGrid pins that the share slab is reused across
// merges: on a 6 km × 3 km region at 50 m cells (120 × 60) with three
// parties, a merge allocates on average less than one grid row.
func TestMergeAllocatesNoGrid(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops reused slabs at random")
	}
	region := geo.BBox{MinX: 0, MinY: 0, MaxX: 6_000, MaxY: 3_000}
	parts := randomParts(randx.New(2, 2), 3, 10, region)
	const merges = 100
	if _, _, err := MergeProfiles(parts, region, 50, 0); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= merges; i++ {
		if _, _, err := MergeProfiles(parts, region, 50, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const row = 120 * 60 * 8
	if perMerge := (after.TotalAlloc - before.TotalAlloc) / merges; perMerge >= row {
		t.Errorf("a merge allocates %d B on average, want < one %d B grid row", perMerge, row)
	}
}

// BenchmarkMergeProfiles3Parties times a merge of ten locations per
// party: three parties on the 10 km grid at 100 m (10,000 cells), and
// two and three parties on cluster-failover's district grid, 6 km × 3 km
// at 50 m (7,200 cells) — the round with edge 1 out and a full round.
func BenchmarkMergeProfiles3Parties(b *testing.B) {
	district := geo.BBox{MinX: 0, MinY: 0, MaxX: 6_000, MaxY: 3_000}
	for _, bc := range []struct {
		name    string
		region  geo.BBox
		cell    float64
		parties int
	}{
		{"grid=10km/parties=3", testRegion(), 100, 3},
		{"grid=district/parties=2", district, 50, 2},
		{"grid=district/parties=3", district, 50, 3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			parts := randomParts(randx.New(1, 1), bc.parties, 10, bc.region)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := MergeProfiles(parts, bc.region, bc.cell, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
