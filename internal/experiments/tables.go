package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
)

// Table1 regenerates Table I — the survey of radius-targeting ranges on
// major LBA platforms — and validates that the campaign machinery
// enforces them.
func Table1(Options) (*Result, error) {
	res := &Result{
		ID:     "table1",
		Title:  "Targeting range on top players' LBA platforms",
		Header: []string{"company", "min radius (m)", "max radius (m)"},
	}
	for _, l := range adnet.PlatformLimits() {
		// Exercise enforcement: the midpoint must validate, the
		// out-of-range values must not.
		mid := (l.MinRadius + l.MaxRadius) / 2
		limit := l
		if err := (adnet.Campaign{ID: "probe", Radius: mid}).Validate(&limit); err != nil {
			return nil, fmt.Errorf("platform %s rejected in-range radius: %w", l.Company, err)
		}
		if err := (adnet.Campaign{ID: "probe", Radius: l.MinRadius / 2}).Validate(&limit); err == nil {
			return nil, fmt.Errorf("platform %s accepted sub-minimum radius", l.Company)
		}
		res.Rows = append(res.Rows, []string{
			l.Company, fmtF(l.MinRadius, 0), fmtF(l.MaxRadius, 0),
		})
	}
	minC, maxC := adnet.CommonRadiusInterval()
	res.Notes = append(res.Notes,
		fmt.Sprintf("common interval across platforms: [%g m, %g m]; the evaluation uses its minimum R = 5 km", minC, maxC),
	)
	return res, nil
}

// scaleCounts returns five doubling user counts ending at top, mirroring
// the paper's 2000→32000 sweep at any scale.
func scaleCounts(top int) []int {
	counts := make([]int, 5)
	for i := 4; i >= 0; i-- {
		if top < 10 {
			top = 10
		}
		counts[i] = top
		top /= 2
	}
	return counts
}

// Table2Point is one row of the Table II measurement.
type Table2Point struct {
	Users     int
	Elapsed   time.Duration
	PerUser   time.Duration
	TableRows int
}

// RunTable2 measures the obfuscation pipeline — building each user's
// location profile and generating the permanent candidate sets — for
// doubling user counts (the paper's Table II on a Raspberry Pi 3). The
// population is ingested into the real edge engine untimed; the timed
// section is the engine's RebuildAll batch recomputation, fanned out
// across opts.Parallelism workers.
func RunTable2(opts Options) ([]Table2Point, error) {
	const checkInsPerUser = 250 // ~3 months of LBA activity
	cfg, err := deploy.Engine(deploy.Params(), 0)
	if err != nil {
		return nil, err
	}

	var points []Table2Point
	for _, users := range scaleCounts(opts.Users) {
		rnd := randx.New(opts.Seed, uint64(users))
		cfg.Seed = opts.Seed + uint64(users)
		engine, err := core.NewEngine(cfg)
		if err != nil {
			return nil, fmt.Errorf("building engine: %w", err)
		}
		// Ingest the per-user check-in clouds untimed so only the profile
		// rebuild + candidate generation pipeline is measured. Reports are
		// minutes apart, well inside the 90-day profile window, so no
		// rebuild fires during ingestion.
		base := time.Date(2020, 3, 2, 0, 0, 0, 0, time.UTC)
		for u := 0; u < users; u++ {
			id := fmt.Sprintf("t2-user-%06d", u)
			home := geo.Point{X: rnd.Float64() * 90000, Y: rnd.Float64() * 75000}
			work := home.Add(rnd.UniformDisk(15000))
			for i := 0; i < checkInsPerUser; i++ {
				pos := home
				if i%3 == 0 {
					pos = work
				}
				at := base.Add(time.Duration(i) * time.Minute)
				if err := engine.Report(id, pos.Add(rnd.GaussianPolar(12)), at); err != nil {
					return nil, fmt.Errorf("reporting: %w", err)
				}
			}
		}

		now := base.Add(time.Duration(checkInsPerUser) * time.Minute)
		start := time.Now()
		if err := engine.RebuildAll(now, opts.Parallelism); err != nil {
			return nil, fmt.Errorf("rebuilding %d users: %w", users, err)
		}
		elapsed := time.Since(start)

		tableRows := 0
		for _, id := range engine.Users() {
			entries, err := engine.Table(id)
			if err != nil {
				return nil, fmt.Errorf("reading table for %s: %w", id, err)
			}
			tableRows += len(entries)
		}
		points = append(points, Table2Point{
			Users:     users,
			Elapsed:   elapsed,
			PerUser:   elapsed / time.Duration(users),
			TableRows: tableRows,
		})
	}
	return points, nil
}

// Table2 regenerates Table II — obfuscation processing time vs users.
func Table2(opts Options) (*Result, error) {
	points, err := RunTable2(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "table2",
		Title:  "Obfuscation processing time (profile build + candidate generation)",
		Header: []string{"users", "processing time", "per user", "table rows"},
	}
	for _, p := range points {
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(p.Users),
			p.Elapsed.Round(time.Microsecond).String(),
			p.PerUser.Round(time.Microsecond).String(),
			strconv.Itoa(p.TableRows),
		})
	}
	res.Notes = append(res.Notes,
		"paper (Raspberry Pi 3): 340 s for 2000 users up to 4014 s for 32000 users — linear in users",
		"absolute times differ on this host; the reproduced claim is the linear scaling",
	)
	return res, nil
}

// Table3Point is one row of the Table III measurement.
type Table3Point struct {
	Users   int
	Elapsed time.Duration
	PerUser time.Duration
}

// RunTable3 measures the output-selection module answering one LBA
// request per user for doubling user counts (the paper's Table III).
func RunTable3(opts Options) ([]Table3Point, error) {
	mech, err := geoind.NewNFoldGaussian(deploy.Params())
	if err != nil {
		return nil, fmt.Errorf("building mechanism: %w", err)
	}

	var points []Table3Point
	for _, users := range scaleCounts(opts.Users) {
		rnd := randx.New(opts.Seed, uint64(users)+1)
		candidateSets := make([][]geo.Point, users)
		for u := range candidateSets {
			home := geo.Point{X: rnd.Float64() * 90000, Y: rnd.Float64() * 75000}
			cands, err := mech.Obfuscate(rnd, home)
			if err != nil {
				return nil, fmt.Errorf("obfuscating: %w", err)
			}
			candidateSets[u] = cands
		}

		start := time.Now()
		for _, cands := range candidateSets {
			if _, _, err := core.SelectPosterior(rnd, cands, mech.Sigma()); err != nil {
				return nil, fmt.Errorf("selecting: %w", err)
			}
		}
		elapsed := time.Since(start)
		points = append(points, Table3Point{
			Users:   users,
			Elapsed: elapsed,
			PerUser: elapsed / time.Duration(users),
		})
	}
	return points, nil
}

// Table3 regenerates Table III — output selection time vs users.
func Table3(opts Options) (*Result, error) {
	points, err := RunTable3(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "table3",
		Title:  "Output selection time (one posterior selection per user)",
		Header: []string{"users", "selection time", "per user"},
	}
	for _, p := range points {
		res.Rows = append(res.Rows, []string{
			strconv.Itoa(p.Users),
			p.Elapsed.Round(time.Microsecond).String(),
			p.PerUser.Round(time.Nanosecond).String(),
		})
	}
	res.Notes = append(res.Notes,
		"paper (Raspberry Pi 3): 90 ms for 2000 users up to 1377 ms for 32000 users — linear, low latency",
		"absolute times differ on this host; the reproduced claim is the linear scaling",
	)
	return res, nil
}
