package edgecluster

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/randx"
)

// The failure detector replaces the operator: instead of someone
// hand-calling MarkDown when an edge dies and MarkUp when it returns,
// every live edge pings a few pseudo-randomly chosen peers each tick
// (the SWIM idiom), and the aggregated probe outcomes drive the
// cluster's health state through a suspect → down → revive lifecycle.
// The probe schedule is seeded, so a chaos replay observes the same
// probe order every run — the same determinism contract the rest of the
// repo keeps.

// NodeHealth is the detector's belief about one edge.
type NodeHealth int8

const (
	// HealthAlive: probes are answered (or the node has not failed
	// enough consecutive ticks to be suspected).
	HealthAlive NodeHealth = iota
	// HealthSuspect: probes failed SuspectAfter consecutive ticks; the
	// node is re-probed every tick but not yet marked down.
	HealthSuspect
	// HealthDown: the suspicion was confirmed and the detector called
	// MarkDown; the node is re-probed every tick for revival.
	HealthDown
)

// String names the state for logs and chaos summaries.
func (h NodeHealth) String() string {
	switch h {
	case HealthAlive:
		return "alive"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	}
	return fmt.Sprintf("health(%d)", int8(h))
}

// Transition is one health-state change a Tick produced.
type Transition struct {
	Edge     int
	Node     string
	From, To NodeHealth
}

// DetectorConfig parameterises the ping-based failure detector.
type DetectorConfig struct {
	// Probes is how many pseudo-randomly chosen peers each live edge
	// pings per tick; ≤ 0 selects 2. Suspected and down nodes are
	// additionally probed every tick regardless, so confirmation and
	// revival converge deterministically once suspicion starts.
	Probes int
	// SuspectAfter is the number of consecutive failed ticks before an
	// alive node becomes suspect; ≤ 0 selects 2.
	SuspectAfter int
	// ConfirmAfter is the number of further failed ticks before a
	// suspect is confirmed down; ≤ 0 selects 1.
	ConfirmAfter int
	// Seed drives the probe target schedule; derived from the cluster
	// seed when zero.
	Seed uint64
}

// Detector runs ping-based decentralized failure detection over a
// cluster. Construct one with Cluster.NewDetector, then call Tick from
// the deployment's own cadence. Tick is safe for concurrent use with
// the cluster's serving and merge paths.
type Detector struct {
	c   *Cluster
	cfg DetectorConfig
	rnd *randx.Rand

	mu    sync.Mutex
	state []NodeHealth
	// fails counts consecutive ticks each node failed at least one
	// probe; any answered probe resets it.
	fails []int
}

// NewDetector builds a detector over the cluster's current membership.
func (c *Cluster) NewDetector(cfg DetectorConfig) *Detector {
	if cfg.Probes <= 0 {
		cfg.Probes = 2
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.ConfirmAfter <= 0 {
		cfg.ConfirmAfter = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = c.cfg.Seed
	}
	d := &Detector{
		c:     c,
		cfg:   cfg,
		rnd:   randx.New(cfg.Seed, 0xD67EC7),
		state: make([]NodeHealth, len(c.nodes)),
		fails: make([]int, len(c.nodes)),
	}
	c.mu.Lock()
	var ds []*Detector
	if p := c.detectors.Load(); p != nil {
		ds = *p
	}
	ds = append(slices.Clip(ds), d)
	c.detectors.Store(&ds)
	c.mu.Unlock()
	return d
}

// suspects counts the edges that any detector built over the cluster
// holds in HealthSuspect. It takes each detector's lock and no other:
// Tick holds that lock while MarkUp and MarkDown take the cluster's.
func (c *Cluster) suspects() int {
	p := c.detectors.Load()
	if p == nil {
		return 0
	}
	suspect := make([]bool, len(c.nodes))
	n := 0
	for _, d := range *p {
		d.mu.Lock()
		for i, h := range d.state {
			if h == HealthSuspect && !suspect[i] {
				suspect[i] = true
				n++
			}
		}
		d.mu.Unlock()
	}
	return n
}

// Cfg returns the detector's resolved configuration, with defaults
// applied — callers sizing tick budgets read thresholds from here.
func (d *Detector) Cfg() DetectorConfig { return d.cfg }

// Health returns the detector's current belief about edge i.
func (d *Detector) Health(i int) NodeHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.state) {
		return HealthAlive
	}
	return d.state[i]
}

// Tick runs one probe round and applies the resulting health
// transitions to the cluster:
//
//   - every live edge pings cfg.Probes pseudo-random peers; suspected
//     and down edges are pinged every tick on top,
//   - an edge failing probes SuspectAfter consecutive ticks becomes
//     suspect, and ConfirmAfter failed ticks later is confirmed down
//     (MarkDown — routing and merges already skipped it passively via
//     reachability, now the belief matches),
//   - a suspected edge that answers again is cleared,
//   - a down edge that answers again is revived (MarkUp), which
//     catches its tables up from the journal before it takes traffic.
//
// The returned transitions report what changed this tick. The error
// surfaces revival catch-up failures; the revived node stays live and
// retryable via Reconcile, matching MarkUp.
func (d *Detector) Tick() ([]Transition, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	nodes := d.c.nodes
	met := d.c.met.Load()

	// Adopt external MarkDowns: if an operator (or another detector
	// instance) downed a node, probing proceeds from that belief so an
	// answering node is revived rather than fought over.
	for i, n := range nodes {
		if n.Down() && d.state[i] != HealthDown {
			d.state[i] = HealthDown
			d.fails[i] = d.cfg.SuspectAfter + d.cfg.ConfirmAfter
		}
	}

	// Choose this tick's probe targets. Iteration is index-ordered and
	// the PRNG is seeded, so the schedule is deterministic.
	probed := make([]bool, len(nodes))
	for i, n := range nodes {
		if n.Down() || !n.Reachable() {
			continue // dead or confirmed-down edges do not probe
		}
		for p := 0; p < d.cfg.Probes && len(nodes) > 1; p++ {
			t := d.rnd.IntN(len(nodes) - 1)
			if t >= i {
				t++ // skip self
			}
			probed[t] = true
		}
	}
	// Suspected and down nodes are always re-probed: confirmation and
	// revival must not wait on the random schedule happening to pick
	// them.
	for i := range nodes {
		if d.state[i] != HealthAlive {
			probed[i] = true
		}
	}

	var transitions []Transition
	var firstErr error
	for i, n := range nodes {
		if !probed[i] {
			continue
		}
		if met != nil {
			met.probes.Inc()
		}
		if n.Reachable() {
			d.fails[i] = 0
			switch d.state[i] {
			case HealthSuspect:
				d.state[i] = HealthAlive
				transitions = append(transitions, Transition{Edge: i, Node: n.ID, From: HealthSuspect, To: HealthAlive})
			case HealthDown:
				// The endpoint answers again: revive. MarkUp replays the
				// journal for lagging users before the node takes traffic.
				if err := d.c.MarkUp(i); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("edgecluster: reviving %s: %w", n.ID, err)
				}
				d.state[i] = HealthAlive
				transitions = append(transitions, Transition{Edge: i, Node: n.ID, From: HealthDown, To: HealthAlive})
				if met != nil {
					met.autoRevives.Inc()
				}
			}
			continue
		}
		if met != nil {
			met.probeFailures.Inc()
		}
		d.fails[i]++
		switch d.state[i] {
		case HealthAlive:
			if d.fails[i] >= d.cfg.SuspectAfter {
				d.state[i] = HealthSuspect
				transitions = append(transitions, Transition{Edge: i, Node: n.ID, From: HealthAlive, To: HealthSuspect})
			}
		case HealthSuspect:
			if d.fails[i] >= d.cfg.SuspectAfter+d.cfg.ConfirmAfter {
				d.state[i] = HealthDown
				_ = d.c.MarkDown(i)
				transitions = append(transitions, Transition{Edge: i, Node: n.ID, From: HealthSuspect, To: HealthDown})
				if met != nil {
					met.autoDowns.Inc()
				}
			}
		}
	}
	return transitions, firstErr
}
