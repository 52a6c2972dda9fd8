// Package deploy builds the default Edge-PrivLocAd deployment that every
// binary runs: the paper's defense parameters (Section V-C), the nomadic
// mechanism, the ad side of synthetic radius-targeted campaigns, and the
// simulation's multi-edge layout. edged, loadgen, lbasim, the examples
// and the experiments all build from here, so a changed default reaches
// every one of them.
package deploy

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
	"repro/internal/rtb"
	"repro/internal/trace"
)

// CampaignStream is the PRNG stream selector the synthetic campaign
// layout (and, in RTB mode, each bidder's CPM) is drawn from.
const CampaignStream = 0xEDEDED

// Params returns the paper's evaluation parameters of the n-fold
// Gaussian defense: (r, ε, δ, n) = (500 m, 1, 0.01, 10).
func Params() geoind.Params {
	return geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10}
}

// NewNomadic builds planar-Laplace noise at privacy level ln 4 within
// 200 m: the fresh noise a check-in away from every top location gets,
// and the one-time geo-IND baseline the experiments attack.
func NewNomadic() (*geoind.PlanarLaplace, error) {
	return geoind.NewPlanarLaplace(math.Log(4), 200)
}

// Engine returns an engine configuration that serves top locations from
// the n-fold Gaussian at p and everything else from NewNomadic, seeded
// with seed. Shards, SpillDir and MaxResidentUsers are the caller's.
func Engine(p geoind.Params, seed uint64) (core.Config, error) {
	mech, err := geoind.NewNFoldGaussian(p)
	if err != nil {
		return core.Config{}, fmt.Errorf("building n-fold mechanism: %w", err)
	}
	nomadic, err := NewNomadic()
	if err != nil {
		return core.Config{}, fmt.Errorf("building nomadic mechanism: %w", err)
	}
	return core.Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: seed}, nil
}

// NewProvider builds the untrusted ad side: an ad network seeded with
// synthetic radius-targeted campaigns, and the RTB exchange those
// campaigns bid on. With useRTB the exchange serves ads through an
// rtb.Provider; otherwise the network matches them directly. opts
// configure the bid-request logs (adnet.WithBidLogCap bounds them). It
// returns the serving provider, its bid-request log, and the exchange,
// whose metrics edged registers in both modes for a stable schema.
func NewProvider(campaigns int, seed uint64, useRTB bool, opts ...adnet.Option) (edge.AdProvider, *adnet.RequestLog, *rtb.Exchange, error) {
	limit := adnet.PlatformLimits()[0] // Google: 5–65 km
	network, err := adnet.NewNetwork(&limit, opts...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("building ad network: %w", err)
	}
	exchange, err := rtb.NewExchange(100*time.Millisecond, 0.05)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("building exchange: %w", err)
	}
	region := trace.DefaultConfig().Region
	rnd := randx.New(seed, CampaignStream)
	for i := 0; i < campaigns; i++ {
		loc := geo.Point{
			X: region.MinX + rnd.Float64()*region.Width(),
			Y: region.MinY + rnd.Float64()*region.Height(),
		}
		campaign := adnet.Campaign{
			ID:       fmt.Sprintf("campaign-%05d", i),
			Location: loc,
			Radius:   limit.MinRadius + rnd.Float64()*(25_000-limit.MinRadius),
			Ad: adnet.Ad{
				ID:       fmt.Sprintf("ad-%05d", i),
				Title:    fmt.Sprintf("Offer #%d", i),
				Location: loc,
			},
		}
		if err := network.Register(campaign); err != nil {
			return nil, nil, nil, fmt.Errorf("registering campaign %d: %w", i, err)
		}
		if useRTB {
			bidder, err := rtb.NewCampaignBidder(campaign, 0.5+rnd.Float64()*4, 1e6)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("building bidder %d: %w", i, err)
			}
			if err := exchange.Register(bidder); err != nil {
				return nil, nil, nil, fmt.Errorf("registering bidder %d: %w", i, err)
			}
		}
	}
	if !useRTB {
		return network, &network.RequestLog, exchange, nil
	}
	rtbProvider, err := rtb.NewProvider(exchange, opts...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("building RTB provider: %w", err)
	}
	return rtbProvider, &rtbProvider.RequestLog, exchange, nil
}

// NewCluster builds the simulation's multi-edge deployment of engine:
// edge centres spread along cover's horizontal midline, each disk as
// wide as cover's diagonal, so every point of cover has a failover
// target and a single down edge never strands traffic. Secure
// aggregation merges only check-ins inside merge; cover is wider than
// merge when traffic leaves the home region (out-of-region check-ins
// count as dropped).
func NewCluster(engine core.Config, cover, merge geo.BBox, edges int, seed uint64) (*edgecluster.Cluster, error) {
	diag := math.Hypot(cover.Width(), cover.Height())
	coverage := make([]geo.Circle, edges)
	for i := range coverage {
		coverage[i] = geo.Circle{
			Center: geo.Point{
				X: cover.MinX + (float64(i)+0.5)*cover.Width()/float64(edges),
				Y: cover.MinY + cover.Height()/2,
			},
			Radius: diag,
		}
	}
	cluster, err := edgecluster.New(edgecluster.Config{
		Engine:      engine,
		Coverage:    coverage,
		MergeRegion: merge,
		Seed:        seed,
	})
	if err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	return cluster, nil
}
