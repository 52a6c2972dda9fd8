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

// urTrials runs `trials` independent obfuscations of the origin with the
// mechanism and returns the per-trial utilization rates at targeting
// radius R. Trials are mutually independent Monte-Carlo draws, so they
// fan out across parallelism workers, each trial on its own
// index-derived stream.
func urTrials(mech geoind.Mechanism, rnd *randx.Rand, trials, samples int, targetRadius float64, parallelism int) ([]float64, error) {
	truth := geo.Point{}
	urs := make([]float64, trials)
	err := par.MapSeeded(parallelism, trials, rnd, func(i int, rnd *randx.Rand) error {
		cands, err := mech.Obfuscate(rnd, truth)
		if err != nil {
			return fmt.Errorf("obfuscating trial %d: %w", i, err)
		}
		urs[i] = metrics.UtilizationRate(rnd, truth, cands, targetRadius, samples)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return urs, nil
}

// Fig7Point is one (mechanism, n) measurement of the Fig. 7 comparison.
type Fig7Point struct {
	Mechanism string
	N         int
	MeanUR    float64
	P10UR     float64
	P90UR     float64
}

// RunFig7 measures the utilization-rate distribution of the three
// mechanisms for n = 1…10 at ε = 1, r = 500 m, R = 5 km.
func RunFig7(opts Options) ([]Fig7Point, error) {
	const targetRadius = 5000.0
	var points []Fig7Point
	for n := 1; n <= 10; n++ {
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
			rnd := randx.New(opts.Seed, uint64(n*10+bi))
			urs, err := urTrials(mech, rnd, opts.Trials, opts.URSamples, targetRadius, opts.Parallelism)
			if err != nil {
				return nil, fmt.Errorf("UR trials %s n=%d: %w", b.name, n, err)
			}
			sum, err := metrics.Summarize(urs)
			if err != nil {
				return nil, fmt.Errorf("summarizing %s n=%d: %w", b.name, n, err)
			}
			points = append(points, Fig7Point{
				Mechanism: b.name, N: n,
				MeanUR: sum.Mean, P10UR: sum.P10, P90UR: sum.P90,
			})
		}
	}
	return points, nil
}

// Fig7 regenerates Fig. 7 — utilization rate across the three mechanisms.
func Fig7(opts Options) (*Result, error) {
	points, err := RunFig7(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig7",
		Title:  "Utilization rate between mechanisms (eps=1, r=500 m, R=5 km)",
		Header: []string{"n", "mechanism", "mean UR", "p10", "p90"},
	}
	for _, p := range points {
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(p.N), p.Mechanism,
			fmtF(p.MeanUR, 3), fmtF(p.P10UR, 3), fmtF(p.P90UR, 3),
		})
	}
	res.Notes = append(res.Notes,
		"paper at n=10: n-fold ~100%, naive post-process ~58%, plain composition ~20% mean UR",
		"paper shape: composition fails to improve UR with more outputs; n-fold dominates both baselines",
	)
	return res, nil
}

// Fig8Point is one (eps, r, n) minimal-UR measurement.
type Fig8Point struct {
	Epsilon float64
	Radius  float64
	N       int
	MinUR   float64
}

// RunFig8 measures the minimal utilization rate υ at confidence α = 0.9
// for the n-fold Gaussian mechanism across ε ∈ {1, 1.5},
// r ∈ {500, 600, 700, 800} m, n = 1…10.
func RunFig8(opts Options) ([]Fig8Point, error) {
	const (
		targetRadius = 5000.0
		alpha        = 0.9
	)
	var points []Fig8Point
	for _, eps := range []float64{1, 1.5} {
		for _, r := range []float64{500, 600, 700, 800} {
			for n := 1; n <= 10; n++ {
				mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: r, Epsilon: eps, Delta: 0.01, N: n})
				if err != nil {
					return nil, fmt.Errorf("building n-fold eps=%g r=%g n=%d: %w", eps, r, n, err)
				}
				rnd := randx.New(opts.Seed, uint64(eps*1000)+uint64(r)*100+uint64(n))
				urs, err := urTrials(mech, rnd, opts.Trials, opts.URSamples, targetRadius, opts.Parallelism)
				if err != nil {
					return nil, fmt.Errorf("UR trials eps=%g r=%g n=%d: %w", eps, r, n, err)
				}
				minUR, err := metrics.MinimalUR(urs, alpha)
				if err != nil {
					return nil, fmt.Errorf("minimal UR eps=%g r=%g n=%d: %w", eps, r, n, err)
				}
				points = append(points, Fig8Point{Epsilon: eps, Radius: r, N: n, MinUR: minUR})
			}
		}
	}
	return points, nil
}

// Fig8 regenerates Fig. 8 — minimal utilization rate at α = 0.9.
func Fig8(opts Options) (*Result, error) {
	points, err := RunFig8(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig8",
		Title:  "Minimal utilization rate at confidence alpha=0.9 (n-fold Gaussian)",
		Header: []string{"eps", "r (m)", "n", "minimal UR"},
	}
	for _, p := range points {
		res.Rows = append(res.Rows, []string{
			fmtF(p.Epsilon, 1), fmtF(p.Radius, 0), strconv.Itoa(p.N), fmtF(p.MinUR, 3),
		})
	}
	res.Notes = append(res.Notes,
		"paper: at eps=1.5 the minimal UR improves from ~0.6 (n=1) to ~0.9 (n=10); ~60% relative improvement at eps=1",
		"paper shape: minimal UR rises monotonically with n and falls with r",
	)
	return res, nil
}

// Fig9Point is one (r, n) efficacy measurement.
type Fig9Point struct {
	Radius       float64
	N            int
	MeanEfficacy float64
}

// RunFig9 measures advertising efficacy with the posterior output
// selection module for r ∈ {500, 600, 700, 800} m, ε = 1, n = 1…10.
func RunFig9(opts Options) ([]Fig9Point, error) {
	const targetRadius = 5000.0
	truth := geo.Point{}
	var points []Fig9Point
	for _, r := range []float64{500, 600, 700, 800} {
		for n := 1; n <= 10; n++ {
			mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: r, Epsilon: 1, Delta: 0.01, N: n})
			if err != nil {
				return nil, fmt.Errorf("building n-fold r=%g n=%d: %w", r, n, err)
			}
			rnd := randx.New(opts.Seed, uint64(r)*1000+uint64(n))
			// The posterior of the real location given the n candidates
			// (Eq. 17) has deviation σ/√n — the sufficient statistic's
			// deviation — which is what concentrates selection near the
			// centroid and keeps efficacy flat (Observation-4).
			posteriorSigma := mech.Sigma() / math.Sqrt(float64(n))
			// Trials fan out to per-index streams; the per-trial efficacies
			// are then summed in index order so the floating-point total is
			// independent of worker scheduling.
			effs := make([]float64, opts.Trials)
			err = par.MapSeeded(opts.Parallelism, opts.Trials, rnd, func(i int, rnd *randx.Rand) error {
				cands, err := mech.Obfuscate(rnd, truth)
				if err != nil {
					return fmt.Errorf("obfuscating r=%g n=%d: %w", r, n, err)
				}
				selected, _, err := core.SelectPosterior(rnd, cands, posteriorSigma)
				if err != nil {
					return fmt.Errorf("selecting r=%g n=%d: %w", r, n, err)
				}
				effs[i] = metrics.EfficacyAnalytic(truth, selected, targetRadius)
				return nil
			})
			if err != nil {
				return nil, err
			}
			var sum float64
			for _, e := range effs {
				sum += e
			}
			points = append(points, Fig9Point{Radius: r, N: n, MeanEfficacy: sum / float64(opts.Trials)})
		}
	}
	return points, nil
}

// Fig9 regenerates Fig. 9 — efficacy under the output selection module.
func Fig9(opts Options) (*Result, error) {
	points, err := RunFig9(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig9",
		Title:  "Advertising efficacy vs number of outputs (posterior selection, eps=1)",
		Header: []string{"r (m)", "n", "mean efficacy"},
	}
	for _, p := range points {
		res.Rows = append(res.Rows, []string{
			fmtF(p.Radius, 0), strconv.Itoa(p.N), fmtF(p.MeanEfficacy, 3),
		})
	}
	res.Notes = append(res.Notes,
		"paper shape: with posterior output selection, efficacy stays roughly flat as n grows (Observation-4)",
	)
	return res, nil
}
