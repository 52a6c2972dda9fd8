package experiments

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/randx"
)

// QoSPoint is one (mechanism, n) expected-error measurement.
type QoSPoint struct {
	Mechanism string
	N         int
	// MeanMeters is the expected distance between the true location and
	// the location actually exposed for an LBA request.
	MeanMeters   float64
	MedianMeters float64
	P90Meters    float64
}

// RunQoS measures the quality-of-service loss — E[dist(true, exposed)] —
// of each mechanism's *selected* output at ε = 1, r = 500 m, for
// n ∈ {1, 5, 10}. Multi-output mechanisms expose one candidate chosen by
// the posterior output-selection module, exactly as the engine does; the
// one-time planar Laplace baseline exposes its fresh noise directly.
//
// This is an extension experiment (not a paper figure): it quantifies
// the price of permanent obfuscation in raw distance terms, complementing
// the paper's utilization-rate and efficacy views.
func RunQoS(opts Options) ([]QoSPoint, error) {
	truth := geo.Point{}
	var points []QoSPoint

	// One-time geo-IND reference (per-report noise, no selection).
	oneTime, err := deploy.NewNomadic()
	if err != nil {
		return nil, fmt.Errorf("building planar laplace: %w", err)
	}
	// Trials are obfuscated in parallel on per-index streams, then
	// replayed into the distance estimator in index order.
	rnd := randx.New(opts.Seed, 0x905)
	exposed := make([]geo.Point, opts.Trials)
	err = par.MapSeeded(opts.Parallelism, opts.Trials, rnd, func(i int, rnd *randx.Rand) error {
		out, err := oneTime.Obfuscate(rnd, truth)
		if err != nil {
			return err
		}
		exposed[i] = out[0]
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("planar laplace exposure: %w", err)
	}
	s, err := metrics.ExpectedDistance(truth, opts.Trials, replayPoints(exposed))
	if err != nil {
		return nil, fmt.Errorf("planar laplace distance: %w", err)
	}
	points = append(points, QoSPoint{
		Mechanism: "planar-laplace l=ln4 (per report)", N: 1,
		MeanMeters: s.Mean, MedianMeters: s.Median, P90Meters: s.P90,
	})

	for _, n := range []int{1, 5, 10} {
		params := deploy.Params()
		params.N = n
		builders := []struct {
			name  string
			build func() (geoind.Mechanism, error)
		}{
			{"n-fold-gaussian", func() (geoind.Mechanism, error) { return geoind.NewNFoldGaussian(params) }},
			{"naive-post-process", func() (geoind.Mechanism, error) { return geoind.NewNaivePostProcess(params, 0) }},
			{"plain-composition", func() (geoind.Mechanism, error) { return geoind.NewPlainComposition(params) }},
		}
		for bi, b := range builders {
			mech, err := b.build()
			if err != nil {
				return nil, fmt.Errorf("building %s n=%d: %w", b.name, n, err)
			}
			posteriorSigma := posteriorSigmaFor(mech, n)
			rnd := randx.New(opts.Seed, uint64(n*100+bi))
			selectedPts := make([]geo.Point, opts.Trials)
			err = par.MapSeeded(opts.Parallelism, opts.Trials, rnd, func(i int, rnd *randx.Rand) error {
				cands, err := mech.Obfuscate(rnd, truth)
				if err != nil {
					return err
				}
				selected, _, err := core.SelectPosterior(rnd, cands, posteriorSigma)
				if err != nil {
					return err
				}
				selectedPts[i] = selected
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s n=%d exposure: %w", b.name, n, err)
			}
			s, err := metrics.ExpectedDistance(truth, opts.Trials, replayPoints(selectedPts))
			if err != nil {
				return nil, fmt.Errorf("%s n=%d distance: %w", b.name, n, err)
			}
			points = append(points, QoSPoint{
				Mechanism: b.name, N: n,
				MeanMeters: s.Mean, MedianMeters: s.Median, P90Meters: s.P90,
			})
		}
	}
	return points, nil
}

// replayPoints feeds precomputed exposures to a sampling estimator in
// index order, one per call.
func replayPoints(pts []geo.Point) func() (geo.Point, error) {
	i := 0
	return func() (geo.Point, error) {
		p := pts[i]
		i++
		return p, nil
	}
}

// posteriorSigmaFor resolves the output-selection σ the same way the
// engine does: the mechanism's Sigma scaled by √n when available,
// otherwise a generous default.
func posteriorSigmaFor(mech geoind.Mechanism, n int) float64 {
	if s, ok := mech.(interface{ Sigma() float64 }); ok {
		return s.Sigma() / math.Sqrt(float64(n))
	}
	if s, ok := mech.(interface{ PerOutputSigma() float64 }); ok {
		return s.PerOutputSigma() / math.Sqrt(float64(n))
	}
	if s, ok := mech.(interface{ SpreadRadius() float64 }); ok {
		return s.SpreadRadius()
	}
	return 1000
}

// QoS renders the extension experiment.
func QoS(opts Options) (*Result, error) {
	points, err := RunQoS(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "qos",
		Title:  "Expected exposure error (extension; eps=1, r=500 m, posterior selection)",
		Header: []string{"mechanism", "n", "mean (m)", "median (m)", "p90 (m)"},
	}
	for _, p := range points {
		res.Rows = append(res.Rows, []string{
			p.Mechanism, strconv.Itoa(p.N),
			fmtF(p.MeanMeters, 0), fmtF(p.MedianMeters, 0), fmtF(p.P90Meters, 0),
		})
	}
	res.Notes = append(res.Notes,
		"extension beyond the paper: raw distance cost of permanent obfuscation vs per-report noise",
		"shape: the n-fold selected output error grows ~√n (σ grows) but posterior selection dampens it; composition explodes",
	)
	return res, nil
}
