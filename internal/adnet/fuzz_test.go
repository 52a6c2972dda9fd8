package adnet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/randx"
)

// matchNaive is the reference implementation of Match: a linear scan
// over every registered campaign with the same containment predicate
// (squared distance against squared radius) and the same (distance,
// ID) ordering, but no spatial index and no radius tiering.
func (n *Network) matchNaive(loc geo.Point) []Campaign {
	n.mu.RLock()
	defer n.mu.RUnlock()
	type hit struct {
		c  Campaign
		d2 float64
	}
	var hits []hit
	for _, c := range n.campaigns {
		if d2 := c.Location.Dist2(loc); d2 <= c.Radius*c.Radius {
			hits = append(hits, hit{c: c, d2: d2})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].d2 != hits[b].d2 {
			return hits[a].d2 < hits[b].d2
		}
		return hits[a].c.ID < hits[b].c.ID
	})
	out := make([]Campaign, len(hits))
	for i, h := range hits {
		out[i] = h.c
	}
	return out
}

// tieStack is where buildFuzzNetwork stacks tieCampaigns campaigns on
// one location, so every query sees them at one distance. Their IDs run
// against registration order (tie5 first, tie0 last), which is also
// the walk's order within a cell: only a tie broken by campaign ID, not
// by registration index, returns them as the naive scan does. Radii
// alternate between two tiers, so ties meet across tiers and inside one
// cell.
var tieStack = geo.Point{X: 16_000, Y: -16_000}

const tieCampaigns = 6

// buildFuzzNetwork registers a deterministic campaign population from
// seed: locations across a ~200 km region, radii spanning every tier
// from sub-kilometre to the 800 km platform extreme (the huge-radius
// campaigns are exactly the case that made the pre-tiering index scan
// the whole world per query), then the tied campaigns at tieStack.
func buildFuzzNetwork(tb testing.TB, seed uint64, campaigns int) *Network {
	tb.Helper()
	n, err := NewNetwork(nil)
	if err != nil {
		tb.Fatal(err)
	}
	rnd := randx.New(seed, 0xAD1)
	for i := 0; i < campaigns; i++ {
		loc := geo.Point{X: rnd.Float64()*200_000 - 100_000, Y: rnd.Float64()*200_000 - 100_000}
		var radius float64
		switch rnd.IntN(4) {
		case 0: // sub-tierBase
			radius = 100 + rnd.Float64()*1_900
		case 1: // the paper's common interval, 5–25 km
			radius = 5_000 + rnd.Float64()*20_000
		case 2: // mid tiers
			radius = 25_000 + rnd.Float64()*75_000
		default: // huge: up to the Microsoft 800 km platform limit
			radius = 100_000 + rnd.Float64()*700_000
		}
		c := Campaign{
			ID:       fmt.Sprintf("c%03d", i),
			Location: loc,
			Radius:   radius,
			Ad:       Ad{ID: fmt.Sprintf("ad%03d", i), Title: "t", Location: loc},
		}
		if err := n.Register(c); err != nil {
			tb.Fatal(err)
		}
	}
	for j := tieCampaigns - 1; j >= 0; j-- {
		radius := 20_000.0
		if j%2 == 1 {
			radius = 300_000
		}
		id := fmt.Sprintf("tie%d", j)
		if err := n.Register(Campaign{ID: id, Location: tieStack, Radius: radius, Ad: Ad{ID: "ad-" + id, Location: tieStack}}); err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// checkEquivalence asserts that Match equals the naive scan, campaigns
// and order, and that RequestAds(limit) returns exactly the naive
// scan's ads truncated to limit.
func checkEquivalence(t *testing.T, n *Network, loc geo.Point, limit int) {
	t.Helper()
	got, want := n.Match(loc), n.matchNaive(loc)
	if !slices.Equal(ids(got), ids(want)) {
		t.Fatalf("Match(%v) = %v, naive scan %v", loc, ids(got), ids(want))
	}
	ads := adIDs(n.RequestAds("fuzz", loc, time.Time{}, limit))
	if wantAds := n.naiveAds(loc, limit); !slices.Equal(ads, wantAds) {
		t.Fatalf("RequestAds(%v, limit %d) = %v, naive sort-then-truncate %v", loc, limit, ads, wantAds)
	}
}

// FuzzMatchEquivalence asserts the tiered, grid-indexed matcher returns
// exactly what a naive linear scan over all campaigns returns, for
// fuzzer-chosen query points, campaign populations and ad limits: Match
// gives the same campaigns in the same order, and RequestAds(limit) the
// first limit of them (all of them for limit <= 0). Committed seeds in
// testdata/fuzz/FuzzMatchEquivalence pin ties at tieStack straddling the
// limit-th place, limits of 1, the match count and past it, zero and
// negative limits, a query on a cell boundary and one outside every
// campaign.
func FuzzMatchEquivalence(f *testing.F) {
	f.Add(uint64(1), float64(0), float64(0), 10)
	f.Add(uint64(2), float64(99_000), float64(-99_000), 3)
	f.Add(uint64(3), float64(-250_000), float64(250_000), 0) // outside every small tier
	f.Add(uint64(42), float64(2_000), float64(2_000), 1)     // on a cell boundary
	f.Add(uint64(7), float64(0.5), float64(-0.5), -1)
	f.Fuzz(func(t *testing.T, seed uint64, qx, qy float64, limit int) {
		if math.IsNaN(qx) || math.IsNaN(qy) || math.Abs(qx) > 1e7 || math.Abs(qy) > 1e7 {
			t.Skip("query outside the plausible coordinate range")
		}
		n := buildFuzzNetwork(t, seed, 40+int(seed%60))
		checkEquivalence(t, n, geo.Point{X: qx, Y: qy}, limit)
	})
}

func ids(cs []Campaign) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

// TestMatchEquivalenceSweep runs the equivalence check over a grid of
// deterministic query points (including points far outside every
// campaign, and the tied stack itself) at every limit from -1 to one
// past the match count, so plain `go test` covers the geometry, the
// order and the truncation to limit without the fuzzer.
func TestMatchEquivalenceSweep(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := buildFuzzNetwork(t, seed, 80)
			rnd := randx.New(seed, 0xF00D)
			queries := []geo.Point{tieStack, tieStack.Add(geo.Point{X: 15_000, Y: 5_000})}
			for i := 0; i < 200; i++ {
				queries = append(queries, geo.Point{X: rnd.Float64()*2_400_000 - 1_200_000, Y: rnd.Float64()*2_400_000 - 1_200_000})
			}
			for _, loc := range queries {
				matches := len(n.matchNaive(loc))
				for limit := -1; limit <= matches+1; limit++ {
					checkEquivalence(t, n, loc, limit)
				}
			}
		})
	}
}
