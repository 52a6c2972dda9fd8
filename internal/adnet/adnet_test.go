package adnet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/randx"
)

func TestPlatformLimitsTable1(t *testing.T) {
	limits := PlatformLimits()
	if len(limits) != 4 {
		t.Fatalf("got %d platforms, want 4", len(limits))
	}
	byCompany := make(map[string]PlatformLimit)
	for _, l := range limits {
		if l.MinRadius <= 0 || l.MaxRadius < l.MinRadius {
			t.Errorf("%s: degenerate range [%g, %g]", l.Company, l.MinRadius, l.MaxRadius)
		}
		byCompany[l.Company] = l
	}
	if g := byCompany["Google"]; g.MinRadius != 5000 || g.MaxRadius != 65000 {
		t.Errorf("Google limits = %+v", g)
	}
	if tc := byCompany["Tencent"]; tc.MinRadius != 500 || tc.MaxRadius != 25000 {
		t.Errorf("Tencent limits = %+v", tc)
	}
}

func TestCommonRadiusInterval(t *testing.T) {
	min, max := CommonRadiusInterval()
	// The paper: "the minimal value of the common interval from 5 km to
	// 25 km".
	if min != 5000 {
		t.Errorf("common min = %g, want 5000", min)
	}
	if max != 25000 {
		t.Errorf("common max = %g, want 25000", max)
	}
}

func TestCampaignValidate(t *testing.T) {
	limit := &PlatformLimit{Company: "Test", MinRadius: 1000, MaxRadius: 10000}
	tests := []struct {
		name    string
		c       Campaign
		limit   *PlatformLimit
		wantErr bool
	}{
		{"ok", Campaign{ID: "a", Radius: 5000}, limit, false},
		{"ok no limit", Campaign{ID: "a", Radius: 1}, nil, false},
		{"empty id", Campaign{Radius: 5000}, limit, true},
		{"zero radius", Campaign{ID: "a"}, limit, true},
		{"below min", Campaign{ID: "a", Radius: 500}, limit, true},
		{"above max", Campaign{ID: "a", Radius: 50000}, limit, true},
		{"inf radius", Campaign{ID: "a", Radius: math.Inf(1)}, nil, true},
		{"nan location", Campaign{ID: "a", Location: geo.Point{X: math.NaN()}, Radius: 5000}, nil, true},
		{"inf location", Campaign{ID: "a", Location: geo.Point{Y: math.Inf(1)}, Radius: 5000}, limit, true},
		{"-inf location", Campaign{ID: "a", Location: geo.Point{X: math.Inf(-1), Y: math.Inf(-1)}, Radius: 5000}, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.c.Validate(tt.limit)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrInvalidCampaign) {
				t.Errorf("error %v should wrap ErrInvalidCampaign", err)
			}
		})
	}
}

func newTestNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRegisterDuplicate(t *testing.T) {
	n := newTestNetwork(t)
	c := Campaign{ID: "c1", Location: geo.Point{}, Radius: 5000, Ad: Ad{ID: "ad1"}}
	if err := n.Register(c); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(c); !errors.Is(err, ErrDuplicateCampaign) {
		t.Errorf("duplicate register: %v", err)
	}
	if n.Campaigns() != 1 {
		t.Errorf("Campaigns = %d", n.Campaigns())
	}
}

func TestRegisterEnforcesPlatformLimit(t *testing.T) {
	limit := PlatformLimits()[3] // Tencent: 500 m – 25 km
	n, err := NewNetwork(&limit)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register(Campaign{ID: "ok", Radius: 5000}); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
	if err := n.Register(Campaign{ID: "small", Radius: 100}); err == nil {
		t.Error("sub-minimum radius accepted")
	}
	if err := n.Register(Campaign{ID: "big", Radius: 30000}); err == nil {
		t.Error("super-maximum radius accepted")
	}
}

func TestMatchRadiusSemantics(t *testing.T) {
	n := newTestNetwork(t)
	mustRegister := func(id string, at geo.Point, radius float64) {
		t.Helper()
		if err := n.Register(Campaign{ID: id, Location: at, Radius: radius, Ad: Ad{ID: "ad-" + id, Location: at}}); err != nil {
			t.Fatal(err)
		}
	}
	mustRegister("near", geo.Point{X: 1000, Y: 0}, 5000)
	mustRegister("far", geo.Point{X: 20000, Y: 0}, 5000)
	mustRegister("wide", geo.Point{X: 30000, Y: 0}, 50000)

	got := n.Match(geo.Point{X: 0, Y: 0})
	if len(got) != 2 {
		t.Fatalf("matched %d campaigns, want 2 (near, wide)", len(got))
	}
	// Nearest-first ordering.
	if got[0].ID != "near" || got[1].ID != "wide" {
		t.Errorf("order = %s, %s", got[0].ID, got[1].ID)
	}
}

// TestMatchMatchesBruteForce property over random campaign sets.
func TestMatchMatchesBruteForce(t *testing.T) {
	rnd := randx.New(11, 11)
	n := newTestNetwork(t)
	type camp struct {
		at     geo.Point
		radius float64
	}
	var camps []camp
	for i := 0; i < 200; i++ {
		c := camp{
			at:     geo.Point{X: rnd.Float64()*60000 - 30000, Y: rnd.Float64()*60000 - 30000},
			radius: 500 + rnd.Float64()*20000,
		}
		camps = append(camps, c)
		if err := n.Register(Campaign{ID: fmt.Sprintf("c%03d", i), Location: c.at, Radius: c.radius}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		q := geo.Point{X: rnd.Float64()*60000 - 30000, Y: rnd.Float64()*60000 - 30000}
		got := n.Match(q)
		want := 0
		for _, c := range camps {
			if c.at.Dist(q) <= c.radius {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: matched %d, brute force %d", trial, len(got), want)
		}
	}
}

func TestRequestAdsLogsAndLimits(t *testing.T) {
	n := newTestNetwork(t)
	for i := 0; i < 5; i++ {
		if err := n.Register(Campaign{
			ID:       fmt.Sprintf("c%d", i),
			Location: geo.Point{X: float64(i) * 100, Y: 0},
			Radius:   10000,
			Ad:       Ad{ID: fmt.Sprintf("ad%d", i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	at := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	ads := n.RequestAds("u1", geo.Point{}, at, 3)
	if len(ads) != 3 {
		t.Errorf("limit not applied: %d ads", len(ads))
	}
	all := n.RequestAds("u1", geo.Point{}, at.Add(time.Minute), 0)
	if len(all) != 5 {
		t.Errorf("limit 0 should return all: %d", len(all))
	}
	if n.LogSize() != 2 {
		t.Errorf("LogSize = %d", n.LogSize())
	}
	log := n.BidLog()
	if log[0].UserID != "u1" || !log[0].Time.Equal(at) {
		t.Errorf("log[0] = %+v", log[0])
	}
}

func TestObservedLocationsPerUser(t *testing.T) {
	n := newTestNetwork(t)
	at := time.Now()
	n.RequestAds("alice", geo.Point{X: 1, Y: 1}, at, 0)
	n.RequestAds("bob", geo.Point{X: 2, Y: 2}, at, 0)
	n.RequestAds("alice", geo.Point{X: 3, Y: 3}, at, 0)
	got := n.ObservedLocations("alice")
	if len(got) != 2 || got[0] != (geo.Point{X: 1, Y: 1}) || got[1] != (geo.Point{X: 3, Y: 3}) {
		t.Errorf("ObservedLocations = %v", got)
	}
	if got := n.ObservedLocations("nobody"); got != nil {
		t.Errorf("unknown user observed %v", got)
	}
}

func TestNetworkConcurrency(t *testing.T) {
	n := newTestNetwork(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				id := fmt.Sprintf("c-%d-%d", i, j)
				if err := n.Register(Campaign{ID: id, Location: geo.Point{X: float64(j), Y: float64(i)}, Radius: 1000}); err != nil {
					t.Error(err)
					return
				}
				n.RequestAds(fmt.Sprintf("u%d", i), geo.Point{X: float64(j), Y: float64(i)}, time.Now(), 5)
			}
		}(i)
	}
	wg.Wait()
	if n.Campaigns() != 400 {
		t.Errorf("campaigns = %d", n.Campaigns())
	}
	if n.LogSize() != 400 {
		t.Errorf("log = %d", n.LogSize())
	}
}

func BenchmarkMatch(b *testing.B) {
	n, err := NewNetwork(nil)
	if err != nil {
		b.Fatal(err)
	}
	rnd := randx.New(1, 1)
	for i := 0; i < 5000; i++ {
		if err := n.Register(Campaign{
			ID:       fmt.Sprintf("c%05d", i),
			Location: geo.Point{X: rnd.Float64() * 90000, Y: rnd.Float64() * 75000},
			Radius:   5000 + rnd.Float64()*20000,
		}); err != nil {
			b.Fatal(err)
		}
	}
	q := geo.Point{X: 45000, Y: 37000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Match(q)
	}
}
