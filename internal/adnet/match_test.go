package adnet

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/trace"
)

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of puts; allocation counts are not pinned there.
var raceEnabled bool

// layoutCampaigns, layoutLimit and layoutQueries describe edged's default
// ad side: 500 campaigns placed uniformly over the city, radii drawn from
// the common 5–25 km interval under Google's platform limit, a 2^16-record
// bid log, and ad requests asking for 10 ads.
const (
	layoutCampaigns = 500
	layoutLimit     = 10
	layoutQueries   = 256
)

// buildEdgedLayout registers edged's default campaign layout (the same
// stream of draws as cmd/edged's newProvider at -seed 1) and returns the
// network with layoutQueries query points spread over the city.
func buildEdgedLayout(tb testing.TB) (*Network, []geo.Point) {
	tb.Helper()
	limit := PlatformLimits()[0] // Google: 5–65 km
	n, err := NewNetwork(&limit, WithBidLogCap(1<<16))
	if err != nil {
		tb.Fatal(err)
	}
	city := trace.DefaultConfig().Region.BBox
	inCity := func(rnd *randx.Rand) geo.Point {
		return geo.Point{X: city.MinX + rnd.Float64()*city.Width(), Y: city.MinY + rnd.Float64()*city.Height()}
	}
	rnd := randx.New(1, 0xEDEDED)
	for i := 0; i < layoutCampaigns; i++ {
		loc := inCity(rnd)
		if err := n.Register(Campaign{
			ID:       fmt.Sprintf("campaign-%05d", i),
			Location: loc,
			Radius:   limit.MinRadius + rnd.Float64()*(25_000-limit.MinRadius),
			Ad:       Ad{ID: fmt.Sprintf("ad-%05d", i), Title: fmt.Sprintf("Offer #%d", i), Location: loc},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	qrnd := randx.New(2, 0xEDEDED)
	queries := make([]geo.Point, layoutQueries)
	for i := range queries {
		queries[i] = inCity(qrnd)
	}
	return n, queries
}

// adIDs returns the IDs of ads, in order.
func adIDs(ads []Ad) []string {
	out := make([]string, len(ads))
	for i, a := range ads {
		out[i] = a.ID
	}
	return out
}

// naiveAds is the reference answer of RequestAds(limit): the naive
// scan's matches, truncated to limit when limit > 0.
func (n *Network) naiveAds(loc geo.Point, limit int) []string {
	want := n.matchNaive(loc)
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	out := make([]string, len(want))
	for i, c := range want {
		out[i] = c.Ad.ID
	}
	return out
}

// TestRequestAdsAllocs pins the allocation count of an ad request at
// edged's layout: the returned slice is the only allocation. The grid
// walk's scratch comes from a pool and no Campaign is copied.
func TestRequestAdsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts, so pooled scratch is reallocated")
	}
	n, queries := buildEdgedLayout(t)
	at := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	n.RequestAds("warm", queries[0], at, layoutLimit) // fill the pool
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		n.RequestAds("u", queries[i%len(queries)], at, layoutLimit)
		i++
	})
	if allocs > 1 {
		t.Fatalf("RequestAds(limit %d) = %.1f allocs/op, want at most 1 (the returned slice)", layoutLimit, allocs)
	}
}

// TestRequestAdsConcurrentPooledScratch runs ad requests at mixed limits
// from 8 goroutines against one network. Every answer must equal the
// naive scan's, and must still equal it after the goroutine's later
// requests: a returned slice that shared pooled scratch would be
// overwritten by then.
func TestRequestAdsConcurrentPooledScratch(t *testing.T) {
	n, queries := buildEdgedLayout(t)
	limits := []int{-1, 0, 1, 3, layoutLimit, 40, 1000}
	type want struct {
		loc   geo.Point
		limit int
		ids   []string
	}
	var wants []want
	for qi, q := range queries[:64] {
		limit := limits[qi%len(limits)]
		wants = append(wants, want{loc: q, limit: limit, ids: n.naiveAds(q, limit)})
	}
	at := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			type served struct {
				ads  []Ad
				want want
			}
			var got []served
			for r := 0; r < rounds; r++ {
				for k := range wants {
					wt := wants[(k*(w+1)+r)%len(wants)]
					ads := n.RequestAds(fmt.Sprintf("u%d", w), wt.loc, at, wt.limit)
					if ids := adIDs(ads); !slices.Equal(ids, wt.ids) {
						t.Errorf("worker %d: RequestAds(%v, %d) = %v, want %v", w, wt.loc, wt.limit, ids, wt.ids)
						return
					}
					got = append(got, served{ads: ads, want: wt})
				}
			}
			for i, s := range got {
				if ids := adIDs(s.ads); !slices.Equal(ids, s.want.ids) {
					t.Errorf("worker %d: answer %d changed after later requests: %v, want %v", w, i, ids, s.want.ids)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := n.TotalLogged(), uint64(workers*rounds*len(wants)); got != want {
		t.Errorf("TotalLogged = %d, want %d", got, want)
	}
}

// BenchmarkRequestAds serves ad requests at edged's layout: 500
// campaigns over the city, radii 5–25 km, limit 10.
func BenchmarkRequestAds(b *testing.B) {
	n, queries := buildEdgedLayout(b)
	at := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAds = n.RequestAds("u", queries[i%len(queries)], at, layoutLimit)
	}
}

// sinkAds keeps benchmarked results alive so the calls are not removed.
var sinkAds []Ad
