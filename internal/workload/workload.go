// Package workload composes hostile and realistic per-user event streams
// for the attack harness and the load generators. A Source supplies the
// ground-truth mobility dataset (the calibrated synthetic generator by
// default, or an external bidding-trace adapter); a scenario Mode then
// elaborates it into the ad-ecosystem's view: device resets that rotate
// ad identifiers mid-trace (churn), correlated per-region check-in gaps
// (gps-outage), multi-city travelers leaving the home region (traveler),
// and multi-SDK request sessions split across colluding ad networks
// under per-network pseudonyms (collude).
//
// Composition is deterministic and bit-identical at any worker count:
// per-user elaboration draws from index-derived randx streams through
// par.MapSeeded, and mode-level fixtures (outage windows, city extents)
// are derived from dedicated streams before the parallel loop.
package workload

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/par"
	"repro/internal/randx"
	"repro/internal/trace"
)

// Mode names a scenario the composer can elaborate.
type Mode string

// The built-in scenario modes.
const (
	// ModeBaseline passes the source dataset through unchanged: one event
	// per check-in, the device's own ID, a single ad network.
	ModeBaseline Mode = "baseline"
	// ModeChurn resets devices mid-trace: each reset rotates the user's
	// advertising identifier, splitting the longitudinal stream the
	// attacker (and the edge) can key on.
	ModeChurn Mode = "churn"
	// ModeGPSOutage drops check-ins inside correlated space-time windows,
	// the "no GPS outages" gap called out in EXPERIMENTS.md.
	ModeGPSOutage Mode = "gps-outage"
	// ModeTraveler relocates trip windows to other cities from the
	// trace.Cities catalog, producing out-of-region check-ins that
	// exercise cluster failover and out-of-region merge paths.
	ModeTraveler Mode = "traveler"
	// ModeCollude splits each user's requests into multi-SDK sessions
	// across several ad networks under per-network pseudonyms — the
	// cross-network adversary joins them back (internal/attack.Collude).
	ModeCollude Mode = "collude"
)

// Modes lists the built-in scenario modes in a stable order.
func Modes() []Mode {
	return []Mode{ModeBaseline, ModeChurn, ModeGPSOutage, ModeTraveler, ModeCollude}
}

// ParseMode validates a scenario mode name.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if s == string(m) {
			return m, nil
		}
	}
	return "", fmt.Errorf("workload: unknown scenario mode %q (have %v)", s, Modes())
}

// Event is one ad-request opportunity as the ad ecosystem observes it:
// the advertising identifier and network are the attacker-visible keys,
// User is the ground-truth device identity the simulation evaluates
// against.
type Event struct {
	// User is the ground-truth device (trace user ID).
	User string
	// AdID is the advertising identifier attached to the bid request —
	// the device ID in baseline mode, a generation-suffixed ID under
	// churn, a per-network pseudonym under collude.
	AdID string
	// Net is the ad network receiving the bid (always 0 outside collude).
	Net int
	// Session numbers the source check-in within the user's trace: the
	// requests of one collude session burst share it. An edge serves one
	// obfuscated output per session, so a burst never hands the adversary
	// independent noise samples of the same position.
	Session int
	// Pos is the device's true position at the event.
	Pos geo.Point
	// Time is the event timestamp.
	Time time.Time
}

// Stream is one ground-truth user's composed event stream, ordered by
// ascending time.
type Stream struct {
	User   string
	Events []Event
}

// Source supplies the ground-truth dataset a scenario elaborates.
// Synthetic wraps the calibrated generator in internal/trace (the
// default); ExternalSource adapts external bidding-trace exports.
type Source interface {
	Dataset() (*trace.Dataset, error)
}

// Synthetic is the default Source: the calibrated synthetic generator.
type Synthetic struct {
	Config trace.Config
}

// Dataset generates the synthetic population.
func (s Synthetic) Dataset() (*trace.Dataset, error) { return trace.Generate(s.Config) }

// Config parameterises scenario composition. Zero fields take the
// defaults documented per field.
type Config struct {
	// Mode selects the scenario; empty means ModeBaseline.
	Mode Mode
	// Seed drives all scenario randomness.
	Seed uint64
	// Parallelism bounds the composer's worker count (≤ 0 selects
	// runtime.NumCPU()); the composed workload is bit-identical at any
	// level.
	Parallelism int
	// Region is the home extent (used by gps-outage windows and traveler
	// re-projection); the zero value means trace.Shanghai().
	Region trace.Region

	// Networks is the number of ad networks in collude mode (default 3).
	Networks int
	// AppsPerUser is how many of those networks each device carries an
	// SDK for (default min(3, Networks), at least 2).
	AppsPerUser int
	// DualSDKProb is the probability a session's requests are served
	// through two of the device's networks — the same true location
	// reported to both, which is the adversary's join signal
	// (default 0.45).
	DualSDKProb float64
	// SessionMax bounds the requests one check-in session emits
	// (default 3).
	SessionMax int

	// ChurnProb is the probability a device resets at least once
	// (default 0.75); ChurnMax bounds resets per device (default 2).
	ChurnProb float64
	ChurnMax  int

	// Outages is the number of correlated space-time outage windows
	// (default 6); OutageMaxDays bounds each window's length (default 10).
	Outages       int
	OutageMaxDays int

	// TravelerProb is the probability a user travels at all
	// (default 0.35); TripsMax bounds trips per traveler (default 3);
	// TripMaxDays bounds one trip's length (default 10).
	TravelerProb float64
	TripsMax     int
	TripMaxDays  int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeBaseline
	}
	if c.Region.Width() <= 0 || c.Region.Height() <= 0 {
		c.Region = trace.Shanghai()
	}
	if c.Networks <= 0 {
		c.Networks = 3
	}
	if c.AppsPerUser <= 0 {
		c.AppsPerUser = min(3, c.Networks)
	}
	c.AppsPerUser = min(c.AppsPerUser, c.Networks)
	if c.DualSDKProb <= 0 {
		c.DualSDKProb = 0.45
	}
	if c.SessionMax <= 0 {
		c.SessionMax = 3
	}
	if c.ChurnProb <= 0 {
		c.ChurnProb = 0.75
	}
	if c.ChurnMax <= 0 {
		c.ChurnMax = 2
	}
	if c.Outages <= 0 {
		c.Outages = 6
	}
	if c.OutageMaxDays <= 0 {
		c.OutageMaxDays = 10
	}
	if c.TravelerProb <= 0 {
		c.TravelerProb = 0.35
	}
	if c.TripsMax <= 0 {
		c.TripsMax = 3
	}
	if c.TripMaxDays <= 0 {
		c.TripMaxDays = 10
	}
	return c
}

// Validate checks the configuration domain.
func (c Config) Validate() error {
	if _, err := ParseMode(string(c.Mode)); err != nil {
		return err
	}
	if c.Mode == ModeCollude && c.Networks < 2 {
		return fmt.Errorf("workload: collude needs at least 2 networks, have %d", c.Networks)
	}
	if c.DualSDKProb > 1 || c.ChurnProb > 1 || c.TravelerProb > 1 {
		return fmt.Errorf("workload: probabilities must be ≤ 1")
	}
	return nil
}

// Stats summarises a composed workload. Mutations counts the
// scenario-specific elaborations: device resets (churn), dropped
// check-ins (gps-outage), relocated check-ins (traveler), dual-SDK
// sessions (collude); baseline has none.
type Stats struct {
	Users     int
	Events    int
	Mutations int
}

// Workload is a composed scenario: the ground-truth dataset plus the
// per-user event streams the ad ecosystem observes.
type Workload struct {
	Mode    Mode
	Config  Config
	Dataset *trace.Dataset
	// Streams is parallel to Dataset.Users.
	Streams []Stream
	Stats   Stats
	// Extent bounds every event position plus the home region — the
	// coverage a simulated deployment must provide (traveler events leave
	// the home box).
	Extent geo.BBox
}

// Stream selector bases for the composer's independent PRNG families
// (avalanche-then-increment idiom; see internal/randx.Mix64).
const (
	streamUsers    = 0x3C0DE
	streamFixtures = 0xF17E5
)

// Build composes the scenario: it pulls the ground-truth dataset from
// src and elaborates every user's stream under cfg.Mode. The same
// (Source output, Config) always yields the same workload, bit for bit,
// at any Parallelism.
func Build(src Source, cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds, err := src.Dataset()
	if err != nil {
		return nil, fmt.Errorf("workload: source: %w", err)
	}
	if len(ds.Users) == 0 {
		return nil, fmt.Errorf("workload: source dataset has no users")
	}

	// Mode-level fixtures come from their own stream, before (and
	// independent of) the parallel per-user loop.
	fixRnd := randx.New(cfg.Seed, streamFixtures)
	window, err := datasetWindow(ds)
	if err != nil {
		return nil, err
	}
	var fx fixtures
	switch cfg.Mode {
	case ModeGPSOutage:
		fx.outages = makeOutages(cfg, fixRnd, window)
	case ModeTraveler:
		fx.cities, err = awayCities(cfg.Region)
		if err != nil {
			return nil, err
		}
	}

	w := &Workload{
		Mode:    cfg.Mode,
		Config:  cfg,
		Dataset: ds,
		Streams: make([]Stream, len(ds.Users)),
	}
	perUser := make([]Stats, len(ds.Users))
	rng := randx.New(cfg.Seed, streamUsers)
	err = par.MapSeeded(cfg.Parallelism, len(ds.Users), rng, func(i int, rnd *randx.Rand) error {
		st, stats := composeUser(cfg, fx, ds.Users[i], i, window, rnd)
		w.Streams[i] = st
		perUser[i] = stats
		return nil
	})
	if err != nil {
		return nil, err
	}

	w.Extent = cfg.Region.BBox
	w.Stats.Users = len(ds.Users)
	for i := range w.Streams {
		w.Stats.Events += perUser[i].Events
		w.Stats.Mutations += perUser[i].Mutations
		for _, e := range w.Streams[i].Events {
			w.Extent = growBBox(w.Extent, e.Pos)
		}
	}
	return w, nil
}

// fixtures carries mode-level state shared by every user.
type fixtures struct {
	outages []outage
	cities  []geo.BBox
}

// outage is one correlated space-time gap: devices inside Area during
// [From, To) produce no check-ins.
type outage struct {
	Area     geo.Circle
	From, To time.Time
}

// datasetWindow bounds the dataset's check-in timestamps; scenario
// windows (resets, outages, trips) are drawn inside it.
func datasetWindow(ds *trace.Dataset) (timeWindow, error) {
	var w timeWindow
	first := true
	for _, u := range ds.Users {
		for _, c := range u.CheckIns {
			if first || c.Time.Before(w.from) {
				w.from = c.Time
			}
			if first || c.Time.After(w.to) {
				w.to = c.Time
			}
			first = false
		}
	}
	if first {
		return timeWindow{}, fmt.Errorf("workload: dataset has no check-ins")
	}
	w.to = w.to.Add(time.Second)
	return w, nil
}

type timeWindow struct{ from, to time.Time }

func (w timeWindow) contains(t time.Time) bool {
	return !t.Before(w.from) && t.Before(w.to)
}

// makeOutages draws the correlated outage windows: a sub-area of the
// region paired with a multi-day time slice.
func makeOutages(cfg Config, rnd *randx.Rand, window timeWindow) []outage {
	span := window.to.Sub(window.from)
	minSide := min(cfg.Region.Width(), cfg.Region.Height())
	out := make([]outage, cfg.Outages)
	for i := range out {
		center := geo.Point{
			X: cfg.Region.MinX + rnd.Float64()*cfg.Region.Width(),
			Y: cfg.Region.MinY + rnd.Float64()*cfg.Region.Height(),
		}
		radius := (0.15 + 0.25*rnd.Float64()) * minSide
		start := window.from.Add(time.Duration(rnd.Float64() * float64(span)))
		days := 1 + rnd.Float64()*float64(cfg.OutageMaxDays-1)
		out[i] = outage{
			Area: geo.Circle{Center: center, Radius: radius},
			From: start,
			To:   start.Add(time.Duration(days * 24 * float64(time.Hour))),
		}
	}
	return out
}

// awayCities projects every catalog city except the home region into the
// home plane.
func awayCities(home trace.Region) ([]geo.BBox, error) {
	var out []geo.BBox
	for _, c := range trace.Cities() {
		if c.Name == home.Name {
			continue
		}
		box, err := c.InPlane(home.Origin)
		if err != nil {
			return nil, fmt.Errorf("workload: projecting %s: %w", c.Name, err)
		}
		out = append(out, box)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: no away cities for region %s", home.Name)
	}
	return out, nil
}

// composeUser elaborates one user's stream under the scenario mode,
// drawing only from the caller's index-derived rnd.
func composeUser(cfg Config, fx fixtures, u *trace.User, idx int, window timeWindow, rnd *randx.Rand) (Stream, Stats) {
	var ev []Event
	var stats Stats
	switch cfg.Mode {
	case ModeChurn:
		ev, stats = composeChurn(cfg, u, window, rnd)
	case ModeGPSOutage:
		ev, stats = composeOutage(fx.outages, u)
	case ModeTraveler:
		ev, stats = composeTraveler(cfg, fx.cities, u, window, rnd)
	case ModeCollude:
		ev, stats = composeCollude(cfg, u, idx, rnd)
	default:
		ev = make([]Event, len(u.CheckIns))
		for i, c := range u.CheckIns {
			ev[i] = Event{User: u.ID, AdID: u.ID, Session: i, Pos: c.Pos, Time: c.Time}
		}
		stats = Stats{Events: len(ev)}
	}
	sortEvents(ev)
	stats.Users = 1
	return Stream{User: u.ID, Events: ev}, stats
}

func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool {
		if !ev[i].Time.Equal(ev[j].Time) {
			return ev[i].Time.Before(ev[j].Time)
		}
		return ev[i].AdID < ev[j].AdID
	})
}

func growBBox(b geo.BBox, p geo.Point) geo.BBox {
	if p.X < b.MinX {
		b.MinX = p.X
	}
	if p.Y < b.MinY {
		b.MinY = p.Y
	}
	if p.X > b.MaxX {
		b.MaxX = p.X
	}
	if p.Y > b.MaxY {
		b.MaxY = p.Y
	}
	return b
}
