// Package privlocad is the public API of the Edge-PrivLocAd reproduction
// (Yu et al., "Thwarting Longitudinal Location Exposure Attacks in
// Advertising Ecosystem via Edge Computing", ICDCS 2022).
//
// The package re-exports the building blocks a downstream user needs:
//
//   - the location privacy mechanisms — the paper's n-fold Gaussian
//     mechanism plus the planar-Laplace (one-time geo-IND), naïve
//     post-processing, and plain-composition baselines;
//   - the Edge-PrivLocAd engine, which manages per-user location
//     profiles, permanently obfuscates top locations, and answers ad
//     requests via posterior-based output selection;
//   - the longitudinal location exposure attack, for evaluating any
//     location-privacy mechanism against long-term observers;
//   - the utility metrics of the paper (utilization rate, advertising
//     efficacy) and the planar geometry utilities they are built on.
//
// A minimal privacy-preserving flow:
//
//	mech, _ := privlocad.NewNFoldGaussian(privlocad.MechanismParams{
//		Radius: 500, Epsilon: 1, Delta: 0.01, N: 10,
//	})
//	nomadic, _ := privlocad.NewPlanarLaplace(math.Log(4), 200)
//	engine, _ := privlocad.NewEngine(privlocad.EngineConfig{
//		Mechanism: mech, NomadicMechanism: nomadic, Seed: 1,
//	})
//	_ = engine.Report("user", privlocad.Point{X: 0, Y: 0}, time.Now())
//	_ = engine.RebuildProfile("user", time.Now())
//	exposed, fromTable, _ := engine.Request("user", privlocad.Point{X: 0, Y: 0})
//
// See the runnable programs under examples/ for complete scenarios, and
// internal/experiments for the harness regenerating every table and
// figure of the paper's evaluation.
package privlocad

import (
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/metrics"
	"repro/internal/randx"
)

// Geometry types.
type (
	// Point is a location in a local metric plane, in metres.
	Point = geo.Point
	// LatLon is a WGS-84 coordinate in decimal degrees.
	LatLon = geo.LatLon
	// Projection maps WGS-84 coordinates to/from a local plane.
	Projection = geo.Projection
	// Circle is a disk in the local plane.
	Circle = geo.Circle
)

// NewProjection builds an equirectangular projection centred on origin.
func NewProjection(origin LatLon) (*Projection, error) { return geo.NewProjection(origin) }

// Mechanism types (see Definition 3 and Section V-C of the paper).
type (
	// MechanismParams bundles the (r, ε, δ, n)-geo-IND parameters.
	MechanismParams = geoind.Params
	// Mechanism is a location privacy-preserving mechanism.
	Mechanism = geoind.Mechanism
	// NFoldGaussian is the paper's n-fold Gaussian mechanism.
	NFoldGaussian = geoind.NFoldGaussian
	// PlanarLaplace is the classic one-time geo-IND mechanism.
	PlanarLaplace = geoind.PlanarLaplace
)

// NewNFoldGaussian builds the paper's mechanism: n simultaneous Gaussian
// obfuscations satisfying (r, ε, δ, n)-geo-IND (Theorem 2).
func NewNFoldGaussian(params MechanismParams) (*NFoldGaussian, error) {
	return geoind.NewNFoldGaussian(params)
}

// NewPlanarLaplace builds a one-time geo-IND mechanism with privacy level
// `level` at radius `radius` (ε = level/radius).
func NewPlanarLaplace(level, radius float64) (*PlanarLaplace, error) {
	return geoind.NewPlanarLaplace(level, radius)
}

// NewNaivePostProcess builds the paper's first baseline (one Gaussian
// anchor, n uniform candidates around it). spreadRadius ≤ 0 selects the
// default spread.
func NewNaivePostProcess(params MechanismParams, spreadRadius float64) (Mechanism, error) {
	return geoind.NewNaivePostProcess(params, spreadRadius)
}

// NewPlainComposition builds the paper's second baseline (n independent
// outputs at ε/n, δ/n each).
func NewPlainComposition(params MechanismParams) (Mechanism, error) {
	return geoind.NewPlainComposition(params)
}

// Engine types (Section V of the paper).
type (
	// EngineConfig parameterises the Edge-PrivLocAd engine.
	EngineConfig = core.Config
	// Engine is the Edge-PrivLocAd core: location management, permanent
	// obfuscation, output selection, and AOI ad filtering.
	Engine = core.Engine
	// TableEntry is one row of the permanent obfuscation table.
	TableEntry = core.TableEntry
)

// Engine sentinel errors.
var (
	// ErrUnknownUser reports an operation on a never-seen user.
	ErrUnknownUser = core.ErrUnknownUser
	// ErrNoProfile reports that no profile window has closed yet.
	ErrNoProfile = core.ErrNoProfile
)

// NewEngine builds the Edge-PrivLocAd engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.NewEngine(cfg) }

// AttackOptions parameterises the longitudinal de-obfuscation attack
// (Algorithm 1).
type AttackOptions = attack.Options

// AttackTopN runs the longitudinal top-n location de-obfuscation attack
// on observed (obfuscated) locations.
func AttackTopN(observed []Point, n int, opts AttackOptions) ([]Point, error) {
	return attack.TopN(observed, n, opts)
}

// AttackSucceeds reports whether the attack recovered the rank-th top
// location within the distance threshold.
func AttackSucceeds(inferred, truth []Point, rank int, threshold float64) bool {
	return attack.Succeeds(inferred, truth, rank, threshold)
}

// Rand is a deterministic random stream used by mechanisms and metrics.
type Rand = randx.Rand

// NewRand creates a stream seeded with (seed, stream).
func NewRand(seed, stream uint64) *Rand { return randx.New(seed, stream) }

// UtilizationRate estimates the paper's utilization rate (Definition 4)
// of a candidate set by Monte Carlo.
func UtilizationRate(rnd *Rand, truth Point, candidates []Point, radius float64, samples int) float64 {
	return metrics.UtilizationRate(rnd, truth, candidates, radius, samples)
}

// Efficacy estimates the paper's advertising efficacy (Definition 5) of a
// selected output location.
func Efficacy(rnd *Rand, truth, selected Point, radius float64, samples int) float64 {
	return metrics.Efficacy(rnd, truth, selected, radius, samples)
}

// SelectPosterior draws one candidate with the posterior-based output
// selection of Algorithm 4; sigma is the posterior deviation (σ/√n for
// the n-fold Gaussian mechanism).
func SelectPosterior(rnd *Rand, candidates []Point, sigma float64) (Point, int, error) {
	return core.SelectPosterior(rnd, candidates, sigma)
}

// Privacy accounting types (composition tracking for per-report noise).
type (
	// Accountant tracks cumulative (ε, δ) privacy loss per user under
	// basic and advanced DP composition.
	Accountant = geoind.Accountant
	// PrivacyLoss is a cumulative (ε, δ) guarantee.
	PrivacyLoss = geoind.Loss
)

// NewAccountant tracks releases of a fixed per-release (ε, δ) mechanism.
func NewAccountant(epsilon, delta float64) (*Accountant, error) {
	return geoind.NewAccountant(epsilon, delta)
}

// Empirical privacy verification.
type (
	// VerifyConfig parameterises VerifyGeoIND.
	VerifyConfig = geoind.VerifyConfig
	// VerifyReport is VerifyGeoIND's result.
	VerifyReport = geoind.VerifyReport
)

// VerifyGeoIND empirically stress-tests a mechanism's (r, ε, δ)-geo-IND
// claim for a pair of locations by histogramming its outputs; the
// reported MaxLogRatio must not exceed ε (up to Monte-Carlo noise).
func VerifyGeoIND(mech Mechanism, p0, p1 Point, delta float64, cfg VerifyConfig) (VerifyReport, error) {
	return geoind.VerifyGeoIND(mech, p0, p1, delta, cfg)
}
