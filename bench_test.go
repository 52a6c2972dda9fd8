package privlocad

// This file holds one benchmark per table and figure of the paper's
// evaluation (Section VII) plus the ablation benchmarks called out in
// DESIGN.md. Each benchmark runs the corresponding experiment harness at
// a reduced scale and reports the headline quantity of that experiment
// as a custom metric, so `go test -bench=. -benchmem` regenerates the
// whole evaluation in one sweep:
//
//	BenchmarkTable1Platforms    — Table I
//	BenchmarkFig2Mobility       — Fig. 2
//	BenchmarkFig3Entropy        — Fig. 3  (reports mean entropy)
//	BenchmarkFig4CaseStudy      — Fig. 4  (reports year-window distance)
//	BenchmarkFig6Attack         — Fig. 6  (reports attack success rates)
//	BenchmarkFig7Utilization    — Fig. 7  (reports per-mechanism UR)
//	BenchmarkFig8MinUR          — Fig. 8  (reports minimal UR at n=10)
//	BenchmarkFig9Efficacy       — Fig. 9  (reports efficacy at n=10)
//	BenchmarkTable2Obfuscation  — Table II (reports per-user time)
//	BenchmarkTable3Selection    — Table III (reports per-user time)
//	BenchmarkAblation*          — design-choice ablations

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/spatial"
	"repro/internal/trace"
)

// benchOptions keeps the full evaluation sweep quick under -bench=.
func benchOptions() experiments.Options {
	return experiments.Options{
		Users:       60,
		MaxCheckIns: 500,
		Trials:      200,
		URSamples:   256,
		Seed:        1,
	}
}

func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Mobility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Entropy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4CaseStudy(b *testing.B) {
	var last experiments.Fig4CaseStudy
	for i := 0; i < b.N; i++ {
		cs, err := experiments.RunFig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = cs
	}
	b.ReportMetric(last.WeekMeters, "week-m")
	b.ReportMetric(last.YearMeters, "year-m")
}

func BenchmarkFig6Attack(b *testing.B) {
	// The fan-out layer is bit-identical at any worker count, so the
	// parallel variants measure pure speedup over the same work. On a
	// single-core host the variants collapse to the same wall-clock; the
	// speedup materializes with the core count.
	for _, parallel := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			opts := benchOptions()
			opts.Parallelism = parallel
			var rows []experiments.Fig6Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.RunFig6(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(rows) == 5 {
				b.ReportMetric(100*rows[1].Success[0][0], "onetime-top1@200m-%")
				b.ReportMetric(100*rows[3].Success[0][0], "defense-top1@200m-%")
				b.ReportMetric(100*rows[3].Success[0][1], "defense-top1@500m-%")
			}
		})
	}
}

func BenchmarkFig7Utilization(b *testing.B) {
	var points []experiments.Fig7Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.RunFig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.N == 10 {
			switch p.Mechanism {
			case "n-fold-gaussian":
				b.ReportMetric(p.MeanUR, "nfold-UR@10")
			case "naive-post-process":
				b.ReportMetric(p.MeanUR, "post-UR@10")
			case "plain-composition":
				b.ReportMetric(p.MeanUR, "comp-UR@10")
			}
		}
	}
}

func BenchmarkFig8MinUR(b *testing.B) {
	var points []experiments.Fig8Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.RunFig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Epsilon == 1.5 && p.Radius == 500 && p.N == 10 {
			b.ReportMetric(p.MinUR, "minUR-eps1.5-r500@10")
		}
	}
}

func BenchmarkFig9Efficacy(b *testing.B) {
	var points []experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.RunFig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Radius == 500 && p.N == 10 {
			b.ReportMetric(p.MeanEfficacy, "efficacy-r500@10")
		}
	}
}

func BenchmarkTable2Obfuscation(b *testing.B) {
	var points []experiments.Table2Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.RunTable2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) > 0 {
		last := points[len(points)-1]
		b.ReportMetric(float64(last.PerUser.Microseconds()), "us/user")
	}
}

func BenchmarkTable3Selection(b *testing.B) {
	var points []experiments.Table3Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.RunTable3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) > 0 {
		last := points[len(points)-1]
		b.ReportMetric(float64(last.PerUser.Nanoseconds()), "ns/user")
	}
}

// BenchmarkAblationSigma isolates the paper's analytic contribution
// (Theorem 2 vs plain composition): it reports the per-output noise σ of
// both approaches at n = 10 and the resulting utilization-rate gap.
func BenchmarkAblationSigma(b *testing.B) {
	params := geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10}
	nf, err := geoind.NewNFoldGaussian(params)
	if err != nil {
		b.Fatal(err)
	}
	pc, err := geoind.NewPlainComposition(params)
	if err != nil {
		b.Fatal(err)
	}
	rnd := randx.New(1, 1)
	truth := geo.Point{}
	var urNF, urPC float64
	for i := 0; i < b.N; i++ {
		cNF, err := nf.Obfuscate(rnd, truth)
		if err != nil {
			b.Fatal(err)
		}
		cPC, err := pc.Obfuscate(rnd, truth)
		if err != nil {
			b.Fatal(err)
		}
		urNF += metrics.UtilizationRate(rnd, truth, cNF, 5000, 256)
		urPC += metrics.UtilizationRate(rnd, truth, cPC, 5000, 256)
	}
	b.ReportMetric(nf.Sigma(), "nfold-sigma-m")
	b.ReportMetric(pc.PerOutputSigma(), "comp-sigma-m")
	b.ReportMetric(urNF/float64(b.N), "nfold-UR")
	b.ReportMetric(urPC/float64(b.N), "comp-UR")
}

// BenchmarkAblationSelection isolates the posterior output-selection
// module (Algorithm 4) against uniform selection: same candidates, same
// privacy, different efficacy.
func BenchmarkAblationSelection(b *testing.B) {
	params := geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10}
	mech, err := geoind.NewNFoldGaussian(params)
	if err != nil {
		b.Fatal(err)
	}
	rnd := randx.New(2, 2)
	truth := geo.Point{}
	posteriorSigma := mech.Sigma() / math.Sqrt(float64(params.N))
	var effPosterior, effUniform float64
	for i := 0; i < b.N; i++ {
		cands, err := mech.Obfuscate(rnd, truth)
		if err != nil {
			b.Fatal(err)
		}
		sp, _, err := core.SelectPosterior(rnd, cands, posteriorSigma)
		if err != nil {
			b.Fatal(err)
		}
		su, _, err := core.SelectUniform(rnd, cands)
		if err != nil {
			b.Fatal(err)
		}
		effPosterior += metrics.EfficacyAnalytic(truth, sp, 5000)
		effUniform += metrics.EfficacyAnalytic(truth, su, 5000)
	}
	b.ReportMetric(effPosterior/float64(b.N), "posterior-efficacy")
	b.ReportMetric(effUniform/float64(b.N), "uniform-efficacy")
}

// BenchmarkAblationTrimming isolates the TRIMMING stage of Algorithm 1:
// attack accuracy with and without the refinement loop.
func BenchmarkAblationTrimming(b *testing.B) {
	mech, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		b.Fatal(err)
	}
	rAlpha, err := mech.ConfidenceRadius(0.05)
	if err != nil {
		b.Fatal(err)
	}
	rnd := randx.New(3, 3)
	home := geo.Point{}
	observed := make([]geo.Point, 0, 600)
	for i := 0; i < 600; i++ {
		out, err := mech.Obfuscate(rnd, home.Add(rnd.GaussianPolar(12)))
		if err != nil {
			b.Fatal(err)
		}
		observed = append(observed, out[0])
	}
	var withTrim, withoutTrim float64
	for i := 0; i < b.N; i++ {
		inferred, err := attack.TopN(observed, 1, attack.Options{Theta: 150, ClusterRadius: rAlpha})
		if err != nil {
			b.Fatal(err)
		}
		withTrim += inferred[0].Dist(home)

		// Without trimming: centroid of the largest connectivity cluster.
		clusters, err := cluster.Connectivity(observed, 150)
		if err != nil {
			b.Fatal(err)
		}
		withoutTrim += clusters[0].Centroid.Dist(home)
	}
	b.ReportMetric(withTrim/float64(b.N), "with-trim-m")
	b.ReportMetric(withoutTrim/float64(b.N), "without-trim-m")
}

// BenchmarkAblationGridCell compares profile clustering against the
// per-point grid scan it replaced: one spatial.Grid.Within query per
// check-in at cell = θ, uniting every hit. Under 15 m wander nearly every
// pair of visits to one top lies within θ, so the scan's cost grows with
// the square of a top's visit count, while cluster.Connectivity's
// cell-sorted union-find stays linear. The input is one calibrated
// user's window at 180 check-ins and at the paper's densest user's
// 11,435.
func BenchmarkAblationGridCell(b *testing.B) {
	const theta = 50.0
	for _, n := range []int{180, 11_435} {
		u, err := trace.GenerateUser(trace.DefaultConfig(), 4, "ablation", n)
		if err != nil {
			b.Fatal(err)
		}
		pts := u.Points()
		b.Run(fmt.Sprintf("grid-scan/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grid, err := spatial.NewGrid(theta)
				if err != nil {
					b.Fatal(err)
				}
				for id, p := range pts {
					grid.Insert(id, p)
				}
				uf := spatial.NewUnionFind(len(pts))
				var buf []int
				for id, p := range pts {
					buf = grid.Within(buf[:0], p, theta)
					for _, j := range buf {
						if j > id {
							uf.Union(id, j)
						}
					}
				}
			}
		})
		b.Run(fmt.Sprintf("connectivity/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Connectivity(pts, theta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
