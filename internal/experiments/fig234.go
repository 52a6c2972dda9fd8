package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/attack"
	"repro/internal/deploy"
	"repro/internal/geo"
	"repro/internal/mathx"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/randx"
	"repro/internal/trace"
)

// Fig2 regenerates the paper's Fig. 2 — a single user's 7-day mobility
// pattern (the paper's example has 2,414 check-ins) — as summary
// statistics: check-ins per day, top-location structure, entropy.
func Fig2(opts Options) (*Result, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = opts.Seed
	// A 7-day window at the paper's example rate.
	cfg.Start = time.Date(2020, 3, 2, 0, 0, 0, 0, time.UTC)
	cfg.End = cfg.Start.Add(7 * 24 * time.Hour)
	user, err := trace.GenerateUser(cfg, opts.Seed, "fig2-user", 2414)
	if err != nil {
		return nil, fmt.Errorf("generating fig2 user: %w", err)
	}

	prof, err := profile.Build(user.Points(), 0)
	if err != nil {
		return nil, fmt.Errorf("profiling fig2 user: %w", err)
	}
	tops := prof.TopN(2)

	res := &Result{
		ID:     "fig2",
		Title:  "A user's 7-day mobility pattern (summary of the paper's example)",
		Header: []string{"day", "check-ins", "at top-1", "at top-2", "elsewhere"},
	}
	day := cfg.Start
	for d := 0; d < 7; d++ {
		next := day.Add(24 * time.Hour)
		cs := user.Between(day, next)
		at1, at2, other := 0, 0, 0
		for _, c := range cs {
			switch {
			case len(tops) > 0 && c.Pos.Dist(tops[0].Loc) <= 100:
				at1++
			case len(tops) > 1 && c.Pos.Dist(tops[1].Loc) <= 100:
				at2++
			default:
				other++
			}
		}
		res.Rows = append(res.Rows, []string{
			day.Format("2006-01-02"),
			strconv.Itoa(len(cs)), strconv.Itoa(at1), strconv.Itoa(at2), strconv.Itoa(other),
		})
		day = next
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("user has %d check-ins over 7 days; location entropy %.3f nats; %d profile locations",
			len(user.CheckIns), prof.Entropy(), len(prof)),
		"paper: the raw trace trivially reveals top locations and mobility patterns; this motivates the attack",
	)
	return res, nil
}

// Fig3 regenerates Fig. 3 — location entropy declines with the number of
// check-ins; 88.8% of the paper's users have entropy below 2.
func Fig3(opts Options) (*Result, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.NumUsers = opts.Users
	cfg.MaxCheckIns = opts.MaxCheckIns
	cfg.Parallelism = opts.Parallelism
	ds, err := trace.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating fig3 population: %w", err)
	}

	// Profiling is pure per user, so it fans out; the entropies land in
	// index-addressed slots and are aggregated sequentially below so the
	// moment sums accumulate in a fixed order.
	entropies := make([]float64, len(ds.Users))
	err = par.ForEachErr(opts.Parallelism, len(ds.Users), func(i int) error {
		prof, err := profile.Build(ds.Users[i].Points(), 0)
		if err != nil {
			return fmt.Errorf("profiling %s: %w", ds.Users[i].ID, err)
		}
		entropies[i] = prof.Entropy()
		return nil
	})
	if err != nil {
		return nil, err
	}

	type bucket struct {
		lo, hi int
	}
	buckets := []bucket{
		{20, 50}, {50, 100}, {100, 200}, {200, 500},
		{500, 1000}, {1000, 2000}, {2000, 5000}, {5000, 1 << 30},
	}
	sums := make([]mathx.OnlineMoments, len(buckets))
	below2 := 0
	for ui, u := range ds.Users {
		h := entropies[ui]
		if h < 2 {
			below2++
		}
		n := len(u.CheckIns)
		for i, b := range buckets {
			if n >= b.lo && n < b.hi {
				sums[i].Add(h)
				break
			}
		}
	}

	res := &Result{
		ID:     "fig3",
		Title:  "Location entropy vs number of check-ins",
		Header: []string{"check-ins", "users", "mean entropy (nats)", "min", "max"},
	}
	for i, b := range buckets {
		if sums[i].Count() == 0 {
			continue
		}
		label := fmt.Sprintf("[%d, %d)", b.lo, b.hi)
		if b.hi == 1<<30 {
			label = fmt.Sprintf(">= %d", b.lo)
		}
		res.Rows = append(res.Rows, []string{
			label,
			strconv.FormatInt(sums[i].Count(), 10),
			fmtF(sums[i].Mean(), 3),
			fmtF(sums[i].Min(), 3),
			fmtF(sums[i].Max(), 3),
		})
	}
	frac := float64(below2) / float64(len(ds.Users))
	res.Notes = append(res.Notes,
		fmt.Sprintf("users with entropy < 2: %s (paper: 88.8%%)", fmtPct(frac)),
		"paper shape: entropy declines as the number of check-ins grows",
	)
	return res, nil
}

// Fig4CaseStudy holds the measured inference distances of the Fig. 4
// case study, exposed for tests and benchmarks.
type Fig4CaseStudy struct {
	WeekMeters  float64
	MonthMeters float64
	YearMeters  float64
}

// RunFig4 executes the case study and returns the raw distances.
func RunFig4(opts Options) (Fig4CaseStudy, error) {
	// The paper's victim: 1,969 check-ins in a year, 1,628 at the top-1
	// location. We construct that user directly.
	rnd := randx.New(opts.Seed, 0xF16F16)
	home := geo.Point{X: 0, Y: 0}
	second := geo.Point{X: 7000, Y: -2500}
	region := trace.DefaultConfig().Region

	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	year := 365 * 24 * time.Hour
	var checkIns []trace.CheckIn
	add := func(p geo.Point, n int) {
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(rnd.Float64() * float64(year)))
			checkIns = append(checkIns, trace.CheckIn{Pos: p.Add(rnd.GaussianPolar(12)), Time: at})
		}
	}
	add(home, 1628)
	add(second, 250)
	for i := 0; i < 1969-1628-250; i++ {
		pos := geo.Point{
			X: region.MinX + rnd.Float64()*region.Width(),
			Y: region.MinY + rnd.Float64()*region.Height(),
		}
		at := start.Add(time.Duration(rnd.Float64() * float64(year)))
		checkIns = append(checkIns, trace.CheckIn{Pos: pos, Time: at})
	}

	// One-time geo-IND obfuscation at the original paper's parameters.
	mech, err := deploy.NewNomadic()
	if err != nil {
		return Fig4CaseStudy{}, fmt.Errorf("building mechanism: %w", err)
	}
	rAlpha, err := mech.ConfidenceRadius(0.05)
	if err != nil {
		return Fig4CaseStudy{}, fmt.Errorf("confidence radius: %w", err)
	}

	// Obfuscate every check-in exactly once, in parallel, each from its
	// index-derived stream; every observation window then attacks the
	// prefix of observations the adversary would have collected by its
	// end, mirroring a longitudinal eavesdropper.
	observed := make([]geo.Point, len(checkIns))
	if err := par.MapSeeded(opts.Parallelism, len(checkIns), rnd, func(i int, rnd *randx.Rand) error {
		out, err := mech.Obfuscate(rnd, checkIns[i].Pos)
		if err != nil {
			return fmt.Errorf("obfuscating: %w", err)
		}
		observed[i] = out[0]
		return nil
	}); err != nil {
		return Fig4CaseStudy{}, err
	}

	windows := []time.Duration{7 * 24 * time.Hour, 30 * 24 * time.Hour, year}
	dists := make([]float64, len(windows))
	err = par.ForEachErr(opts.Parallelism, len(windows), func(w int) error {
		end := start.Add(windows[w])
		var obs []geo.Point
		for i, c := range checkIns {
			if c.Time.Before(end) {
				obs = append(obs, observed[i])
			}
		}
		inferred, err := attack.TopN(obs, 1, attack.Options{Theta: 150, ClusterRadius: rAlpha})
		if err != nil {
			return fmt.Errorf("attacking: %w", err)
		}
		dists[w] = attack.InferenceDistance(inferred, []geo.Point{home}, 1)
		return nil
	})
	if err != nil {
		return Fig4CaseStudy{}, err
	}
	return Fig4CaseStudy{WeekMeters: dists[0], MonthMeters: dists[1], YearMeters: dists[2]}, nil
}

// Fig4 regenerates Fig. 4 — the de-obfuscation case study: inference
// distance of the top-1 location for one-week, one-month, and full-year
// observation windows.
func Fig4(opts Options) (*Result, error) {
	cs, err := RunFig4(opts)
	if err != nil {
		return nil, fmt.Errorf("fig4 case study: %w", err)
	}
	res := &Result{
		ID:     "fig4",
		Title:  "De-obfuscation case study: inference distance vs observation window",
		Header: []string{"window", "observed check-ins (approx)", "top-1 inference distance (m)"},
		Rows: [][]string{
			{"one week", "~38", fmtF(cs.WeekMeters, 1)},
			{"one month", "~162", fmtF(cs.MonthMeters, 1)},
			{"full year", "1969", fmtF(cs.YearMeters, 1)},
		},
		Notes: []string{
			"paper: ~200 m after one week, < 50 m after the full year (victim with 1,969 check-ins, 1,628 at top-1)",
			"mechanism: planar Laplace, l = ln4, r = 200 m (one-time geo-IND)",
		},
	}
	return res, nil
}
