// Package adnet implements the location-based advertising substrate of
// the paper (Section II-A): advertisers registering radius-targeted
// campaigns, an ad network matching ad requests to campaigns whose
// targeting circle covers the reported location, and the bid-request log
// that a longitudinal attacker (an honest-but-curious provider or any
// third-party observer of the bidding stream) mines for user locations.
package adnet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/spatial"
)

// Errors returned by the network.
var (
	// ErrDuplicateCampaign reports a campaign ID registered twice.
	ErrDuplicateCampaign = errors.New("adnet: duplicate campaign id")
	// ErrInvalidCampaign reports a campaign outside the platform limits.
	ErrInvalidCampaign = errors.New("adnet: invalid campaign")
)

// PlatformLimit is one row of the paper's Table I: the radius-targeting
// range offered by a major LBA platform.
type PlatformLimit struct {
	Company   string
	MinRadius float64 // metres
	MaxRadius float64 // metres
}

// PlatformLimits returns the paper's Table I survey data.
func PlatformLimits() []PlatformLimit {
	return []PlatformLimit{
		{Company: "Google", MinRadius: 5_000, MaxRadius: 65_000},
		{Company: "Microsoft", MinRadius: 1_000, MaxRadius: 800_000},
		{Company: "Facebook", MinRadius: 1_609, MaxRadius: 80_467}, // 1–50 miles
		{Company: "Tencent", MinRadius: 500, MaxRadius: 25_000},
	}
}

// CommonRadiusInterval returns the radius interval supported by all four
// surveyed platforms: [5 km, 25 km]. The paper evaluates at its minimum,
// R = 5 km, the hardest setting for utility.
func CommonRadiusInterval() (min, max float64) {
	limits := PlatformLimits()
	min, max = limits[0].MinRadius, limits[0].MaxRadius
	for _, l := range limits[1:] {
		min = math.Max(min, l.MinRadius)
		max = math.Min(max, l.MaxRadius)
	}
	return min, max
}

// Ad is the creative delivered to users; its location is the advertised
// business location.
type Ad struct {
	ID       string    `json:"id"`
	Title    string    `json:"title"`
	Location geo.Point `json:"location"`
}

// Campaign is a radius-targeted advertising campaign: deliver Ad to every
// user reporting a location within Radius of the business Location.
type Campaign struct {
	ID       string    `json:"id"`
	Location geo.Point `json:"location"`
	Radius   float64   `json:"radius_m"`
	Ad       Ad        `json:"ad"`
}

// Validate checks the campaign against the given platform limits (nil
// limits only require a positive radius).
func (c Campaign) Validate(limit *PlatformLimit) error {
	if c.ID == "" {
		return fmt.Errorf("%w: empty id", ErrInvalidCampaign)
	}
	if !(c.Radius > 0) || math.IsInf(c.Radius, 0) {
		return fmt.Errorf("%w: radius %g must be positive and finite", ErrInvalidCampaign, c.Radius)
	}
	if limit != nil && (c.Radius < limit.MinRadius || c.Radius > limit.MaxRadius) {
		return fmt.Errorf("%w: radius %g outside platform range [%g, %g]",
			ErrInvalidCampaign, c.Radius, limit.MinRadius, limit.MaxRadius)
	}
	return nil
}

// BidRecord is one entry of the bid-request log: what a longitudinal
// attacker observing the ad exchange sees for every request — a stable
// user identifier (e.g. Android ID / IDFA) and the reported location.
type BidRecord struct {
	UserID string    `json:"user_id"`
	Loc    geo.Point `json:"loc"`
	Time   time.Time `json:"time"`
}

// tierBase is the radius bound (metres) of the smallest campaign tier;
// tier t holds campaigns with Radius in (tierBase·2^(t-1), tierBase·2^t].
const tierBase = 2_000

// radiusTier indexes the campaigns of one radius bucket. Bucketing by
// radius keeps Match's probe radius per tier at that tier's own maximum:
// without it, one registered huge-radius campaign (platforms allow up to
// 800 km) would force every query to scan enormous grid neighbourhoods
// for every small campaign too.
type radiusTier struct {
	index *spatial.Grid
	max   float64 // largest registered radius in this tier
}

// tierFor returns the tier index of a campaign radius.
func tierFor(radius float64) int {
	t := 0
	for bound := float64(tierBase); radius > bound; bound *= 2 {
		t++
	}
	return t
}

// tierCell is the grid cell size of tier t: half the tier's radius
// bound, so a query probes a bounded ~5×5 cell neighbourhood per tier
// regardless of how large the tier's radii are.
func tierCell(t int) float64 {
	return float64(tierBase) * math.Pow(2, float64(t)) / 2
}

// Network is an in-memory ad network with radius-targeted matching. It is
// safe for concurrent use.
type Network struct {
	limit *PlatformLimit

	// The campaign fields are guarded by the embedded log's mu: one lock
	// serves the index and the log, so a request that is logging holds
	// off Register and Match.
	campaigns map[string]Campaign
	tiers     []*radiusTier // radius-bucketed campaign indexes, nil until first use
	order     []string      // campaign ids in registration order, for the indexes

	// RequestLog records every ad request the network serves.
	RequestLog
}

// RequestLog is the bid-request log an ad-serving endpoint keeps: one
// BidRecord per ad request, the longitudinal attacker's input. It is
// unbounded unless WithBidLogCap makes it a ring of the most recent
// records. The zero value is an empty, unbounded log; it is safe for
// concurrent use.
type RequestLog struct {
	mu sync.RWMutex
	// recs holds the retained records. Once a capped log is full it is a
	// ring whose oldest record sits at start. logged counts every record
	// ever appended (monotonic, unaffected by rotation).
	recs     []BidRecord
	capacity int
	start    int
	logged   uint64
}

// Option configures the bid-request log of a Network, or of another ad
// provider built on RequestLog such as rtb.Provider.
type Option func(*RequestLog)

// WithBidLogCap bounds the bid-request log to the most recent n records,
// turning it into a ring buffer: once full, each new record overwrites
// the oldest. Long-running servers and load runs would otherwise grow
// the log (one record per ad request) without bound; a bounded log keeps
// memory flat while TotalLogged still reports the lifetime count.
// n <= 0 leaves the log unbounded.
func WithBidLogCap(n int) Option {
	return func(l *RequestLog) {
		if n > 0 {
			l.capacity = n
		}
	}
}

// Append logs one bid request, overwriting the oldest retained record
// when a capped log is full.
func (l *RequestLog) Append(rec BidRecord) {
	l.mu.Lock()
	if l.capacity > 0 && len(l.recs) == l.capacity {
		l.recs[l.start] = rec
		l.start = (l.start + 1) % l.capacity
	} else {
		l.recs = append(l.recs, rec)
	}
	l.logged++
	l.mu.Unlock()
}

// forEachLocked visits every retained record oldest-first, unwinding the
// ring rotation. The caller holds l.mu (read or write).
func (l *RequestLog) forEachLocked(fn func(BidRecord)) {
	for i := range l.recs {
		fn(l.recs[(l.start+i)%len(l.recs)])
	}
}

// BidLog returns a copy of the retained bid-request log, oldest first.
// With an unbounded log that is every record ever; under WithBidLogCap
// it is the most recent cap records.
func (l *RequestLog) BidLog() []BidRecord {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]BidRecord, 0, len(l.recs))
	l.forEachLocked(func(rec BidRecord) { out = append(out, rec) })
	return out
}

// ObservedLocations returns the locations a longitudinal attacker has
// collected for one user, in request order (oldest retained first). This
// is the attack's input.
func (l *RequestLog) ObservedLocations(userID string) []geo.Point {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []geo.Point
	l.forEachLocked(func(rec BidRecord) {
		if rec.UserID == userID {
			out = append(out, rec.Loc)
		}
	})
	return out
}

// LogSize returns the number of retained bid records (equal to the
// lifetime count unless WithBidLogCap rotated older records out).
func (l *RequestLog) LogSize() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.recs)
}

// TotalLogged returns the lifetime number of logged bid requests,
// counting records a bounded log has already rotated out.
func (l *RequestLog) TotalLogged() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.logged
}

// NewNetwork creates a network enforcing the given platform limits on
// campaign radii; a nil limit accepts any positive radius. Campaign
// indexes are built lazily per radius tier on first registration.
func NewNetwork(limit *PlatformLimit, opts ...Option) (*Network, error) {
	var lim *PlatformLimit
	if limit != nil {
		l := *limit
		lim = &l
	}
	n := &Network{
		limit:     lim,
		campaigns: make(map[string]Campaign),
	}
	for _, opt := range opts {
		opt(&n.RequestLog)
	}
	return n, nil
}

// Register adds a campaign.
func (n *Network) Register(c Campaign) error {
	if err := c.Validate(n.limit); err != nil {
		return err
	}
	n.RequestLog.mu.Lock()
	defer n.RequestLog.mu.Unlock()
	if _, ok := n.campaigns[c.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateCampaign, c.ID)
	}
	t := tierFor(c.Radius)
	for len(n.tiers) <= t {
		n.tiers = append(n.tiers, nil)
	}
	if n.tiers[t] == nil {
		g, err := spatial.NewGrid(tierCell(t))
		if err != nil {
			return fmt.Errorf("adnet: building tier %d campaign index: %w", t, err)
		}
		n.tiers[t] = &radiusTier{index: g}
	}
	n.campaigns[c.ID] = c
	n.tiers[t].index.Insert(len(n.order), c.Location)
	n.order = append(n.order, c.ID)
	if c.Radius > n.tiers[t].max {
		n.tiers[t].max = c.Radius
	}
	return nil
}

// Campaigns returns the number of registered campaigns.
func (n *Network) Campaigns() int {
	n.RequestLog.mu.RLock()
	defer n.RequestLog.mu.RUnlock()
	return len(n.campaigns)
}

// Match returns the campaigns whose targeting circle contains loc, in
// ascending distance order (nearest business first). Each radius tier is
// probed only out to its own maximum radius, and candidates are rejected
// on squared distance — the sqrt is paid only for actual matches when
// sorting. Containment is defined as Dist2(loc) ≤ Radius², which the
// equivalence fuzz test pins against a naive scan over all campaigns.
func (n *Network) Match(loc geo.Point) []Campaign {
	n.RequestLog.mu.RLock()
	defer n.RequestLog.mu.RUnlock()
	type hit struct {
		c  Campaign
		d2 float64
	}
	var hits []hit
	for _, tier := range n.tiers {
		if tier == nil {
			continue
		}
		tier.index.ForEachWithin(loc, tier.max, func(id int, center geo.Point) {
			c := n.campaigns[n.order[id]]
			if d2 := center.Dist2(loc); d2 <= c.Radius*c.Radius {
				hits = append(hits, hit{c: c, d2: d2})
			}
		})
	}
	// Ordering by squared distance is ordering by distance (sqrt is
	// monotone), with ties broken by campaign ID as before.
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].d2 != hits[b].d2 {
			return hits[a].d2 < hits[b].d2
		}
		return hits[a].c.ID < hits[b].c.ID
	})
	out := make([]Campaign, len(hits))
	for i, h := range hits {
		out[i] = h.c
	}
	return out
}

// RequestAds serves an ad request: it logs the bid record (what the
// attacker observes) and returns up to limit matched ads, nearest first.
// limit <= 0 returns all matches.
func (n *Network) RequestAds(userID string, loc geo.Point, at time.Time, limit int) []Ad {
	n.Append(BidRecord{UserID: userID, Loc: loc, Time: at})
	matches := n.Match(loc)
	if limit > 0 && len(matches) > limit {
		matches = matches[:limit]
	}
	ads := make([]Ad, len(matches))
	for i, c := range matches {
		ads[i] = c.Ad
	}
	return ads
}
