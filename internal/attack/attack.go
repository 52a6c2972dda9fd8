// Package attack implements the longitudinal location exposure attack of
// the paper (Section III): the location profiling attack over raw
// check-ins and the top-n de-obfuscation attack (Algorithm 1) over
// geo-IND-perturbed check-ins, plus the success metrics used by the
// evaluation (attack success rate at a distance threshold, inference
// distance).
package attack

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/spatial"
)

// Options parameterises Algorithm 1.
type Options struct {
	// Theta is the connectivity distance threshold θ: two observed
	// check-ins are connected when within Theta. The paper uses 50 m on
	// raw check-ins; against obfuscated check-ins callers typically widen
	// it relative to the mechanism noise.
	Theta float64
	// ClusterRadius is r_α, the trimming radius — the mechanism's
	// confidence radius at level α (the paper uses r_{0.05}).
	ClusterRadius float64
	// MaxTrimIterations bounds the trimming fixpoint loop (0 = default).
	MaxTrimIterations int
}

// Validate checks the option domain.
func (o Options) Validate() error {
	if !(o.Theta > 0) || math.IsInf(o.Theta, 0) {
		return fmt.Errorf("attack: theta %g must be positive and finite", o.Theta)
	}
	if !(o.ClusterRadius > 0) || math.IsInf(o.ClusterRadius, 0) {
		return fmt.Errorf("attack: cluster radius %g must be positive and finite", o.ClusterRadius)
	}
	return nil
}

// TopN runs the top-n location de-obfuscation attack (Algorithm 1) on a
// victim's observed (obfuscated) check-ins and returns up to n inferred
// top locations in rank order. Fewer than n locations are returned when
// the observations run out.
func TopN(observed []geo.Point, n int, opts Options) ([]geo.Point, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("attack: n %d must be positive", n)
	}

	remaining := make([]bool, len(observed))
	for i := range remaining {
		remaining[i] = true
	}
	remainingCount := len(observed)

	// Rank iterations reuse one grid and one pair of scratch slices: each
	// round re-packs the remaining observations and Resets/refills the
	// trimming index instead of allocating fresh ones per rank.
	grid, err := spatial.NewGrid(opts.Theta)
	if err != nil {
		return nil, fmt.Errorf("attack: building index: %w", err)
	}
	idx := make([]int, 0, remainingCount)
	pts := make([]geo.Point, 0, remainingCount)

	inferred := make([]geo.Point, 0, n)
	for rank := 0; rank < n && remainingCount > 0; rank++ {
		// Cluster the remaining observations by connectivity (Alg. 1:4).
		idx, pts = idx[:0], pts[:0]
		for i, ok := range remaining {
			if ok {
				idx = append(idx, i)
				pts = append(pts, observed[i])
			}
		}
		clusters, err := cluster.Connectivity(pts, opts.Theta)
		if err != nil {
			return nil, fmt.Errorf("attack: clustering rank %d: %w", rank+1, err)
		}
		if len(clusters) == 0 {
			break
		}
		largest := clusters[0] // Alg. 1:5 — the largest cluster

		// Trim and refine (Alg. 1:6, 10–19). Adoption is limited to
		// still-unassigned points, which here is every point in pts, so
		// the grid indexes exactly pts.
		grid.Reset()
		for i, p := range pts {
			grid.Insert(i, p)
		}
		members, centroid, err := cluster.Trim(pts, largest.Members, cluster.TrimOptions{
			Radius:        opts.ClusterRadius,
			MaxIterations: opts.MaxTrimIterations,
			Index:         grid,
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("attack: trimming rank %d: %w", rank+1, err)
		}
		if len(members) == 0 {
			// The trimming loop dissolved the cluster; fall back to the
			// untrimmed largest cluster so the attack still yields a rank.
			members, centroid = largest.Members, largest.Centroid
		}

		inferred = append(inferred, centroid)

		// Remove the clustered points (Alg. 1:8).
		for _, m := range members {
			if remaining[idx[m]] {
				remaining[idx[m]] = false
				remainingCount--
			}
		}
	}
	return inferred, nil
}

// InferenceDistance returns the distance between the inferred location of
// the given rank (1-based) and the corresponding ground-truth top
// location. It returns +Inf when either side lacks that rank, so missing
// inferences count as failures at any threshold.
func InferenceDistance(inferred, truth []geo.Point, rank int) float64 {
	if rank < 1 || rank > len(inferred) || rank > len(truth) {
		return math.Inf(1)
	}
	return inferred[rank-1].Dist(truth[rank-1])
}

// Succeeds reports whether the attack recovered the rank-th top location
// within the distance threshold (the paper's attack success criterion).
func Succeeds(inferred, truth []geo.Point, rank int, threshold float64) bool {
	return InferenceDistance(inferred, truth, rank) <= threshold
}

// SuccessRate aggregates attack success over a population: fraction of
// users whose rank-th top location was recovered within threshold.
// Users lacking a rank-th ground-truth top location are excluded from the
// denominator; it returns NaN when no user qualifies.
func SuccessRate(results [][]geo.Point, truths [][]geo.Point, rank int, threshold float64) float64 {
	eligible, hits := 0, 0
	for i := range results {
		if rank > len(truths[i]) {
			continue
		}
		eligible++
		if Succeeds(results[i], truths[i], rank, threshold) {
			hits++
		}
	}
	if eligible == 0 {
		return math.NaN()
	}
	return float64(hits) / float64(eligible)
}
