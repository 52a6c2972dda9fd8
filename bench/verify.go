package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/randx"
)

// check is one correctness gate's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func gate(name string, err error) check {
	if err != nil {
		return check{Name: name, Detail: err.Error()}
	}
	return check{Name: name, OK: true}
}

// populationFP folds every user's table fingerprint into one digest,
// edge by edge and in sorted ID order, the fold cmd/loadgen's memory
// sweep uses. Users an edge never saw fold in as the empty table.
func populationFP(engines []*core.Engine, ids []string) (uint64, error) {
	fp := core.FingerprintSeed
	for _, e := range engines {
		for _, id := range ids {
			ufp, err := e.TableFingerprint(id)
			if err != nil {
				return 0, fmt.Errorf("fingerprinting %s: %w", id, err)
			}
			fp = randx.Mix64(fp ^ ufp)
		}
	}
	return fp, nil
}

// converge restores every edge endpoint, lets the detector notice, and
// drains the replication journal — the cluster's end-of-run convergence
// pass, run identically on the served cluster and its replay.
func converge(c *edgecluster.Cluster, det *edgecluster.Detector) error {
	for i := range c.Nodes() {
		if err := c.SetReachable(i, true); err != nil {
			return err
		}
	}
	cfg := det.Cfg()
	for i := 0; i < 4*(cfg.SuspectAfter+cfg.ConfirmAfter); i++ {
		if _, err := det.Tick(); err != nil {
			return err
		}
	}
	return c.Reconcile()
}

// checkReplicas is the cluster's byte-identity gate: after convergence
// every edge answers every user from the same table as edge 0.
func checkReplicas(c *edgecluster.Cluster, ids []string) error {
	nodes := c.Nodes()
	for _, id := range ids {
		want, err := nodes[0].Engine.TableFingerprint(id)
		if err != nil {
			return err
		}
		for _, n := range nodes[1:] {
			got, err := n.Engine.TableFingerprint(id)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("%s table for %s is %016x, %s has %016x", n.ID, id, got, nodes[0].ID, want)
			}
		}
	}
	return nil
}

// replayed is the reference state: the run's op streams applied
// directly to a fresh deployment with one shard, no spill tier, no WAL
// and no HTTP.
type replayed struct {
	engines   []*core.Engine
	fp        uint64
	reportDur time.Duration // in report calls
	checkins  int
	reqDur    time.Duration // in Request calls (ads ops)
	requests  int
}

// replay rebuilds the run's final state from its inputs alone. It applies
// the workers' streams concurrently, one goroutine each, as the served
// run does — workers own disjoint users, so any interleaving gives the
// same per-user state — and cluster-failover's outage between the same
// ops as the served run. Report and Request calls are timed: the core
// layer's cost without HTTP or codec.
func replay(w *workload, seed uint64, ids []string, budget int) (*replayed, error) {
	mech, nomadic, err := mechanisms(nil)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w}
	var out *outage
	if w.cluster {
		if in.cluster, err = newCluster(mech, nomadic, 1); err != nil {
			return nil, err
		}
		in.det = newDetector(in.cluster)
		out = &outage{cluster: in.cluster, det: in.det}
	} else if in.engine, err = core.NewEngine(core.Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: edgeSeed, Shards: 1}); err != nil {
		return nil, err
	}
	if err := in.preload(seed, ids); err != nil {
		return nil, err
	}
	gens := make([]*gen, workers)
	parts := make([]replayed, workers)
	for k := range gens {
		gens[k] = newGen(w, seed, k, ids)
	}
	lo, hi := phaseBounds(budget)
	segments := [][2]int{{0, lo}, {lo, hi}, {hi, budget}}
	clock := w.serverTime()
	for s, seg := range segments {
		err := eachWorker(func(k int) error {
			var o op
			batch := make([]core.BatchReport, 0, w.batch)
			for i := seg[0]; i < seg[1]; i++ {
				gens[k].next(&o)
				if err := parts[k].apply(in, ids[o.uid], &o, batch, clock); err != nil {
					return fmt.Errorf("replaying op %d of worker %d: %w", i, k, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if out != nil && s == 0 {
			err = out.begin()
		} else if out != nil && s == 1 {
			err = out.end()
		}
		if err != nil {
			return nil, err
		}
	}
	if out != nil {
		if err := converge(in.cluster, in.det); err != nil {
			return nil, fmt.Errorf("converging replay: %w", err)
		}
	}
	r := &replayed{}
	for _, p := range parts {
		r.reportDur += p.reportDur
		r.checkins += p.checkins
		r.reqDur += p.reqDur
		r.requests += p.requests
	}
	r.engines = in.engines()
	if r.fp, err = populationFP(r.engines, ids); err != nil {
		return nil, err
	}
	return r, nil
}

// apply runs one op through the engine (or cluster) API exactly as the
// serving path does: /v1/report is Report, /v1/report/batch is
// ReportBatch, and /v1/ads is an implicit Report at server time followed
// by Request.
func (r *replayed) apply(in *instance, id string, o *op, batch []core.BatchReport, clock time.Time) error {
	switch {
	case o.kind == opReport && in.cluster != nil:
		batch = toBatch(batch, o)
		start := time.Now()
		errs := in.cluster.ReportBatch(batch)
		r.reportDur += time.Since(start)
		r.checkins += len(batch)
		if len(errs) > 0 {
			return errs[0].Err
		}
		if o.merge {
			if _, _, err := in.cluster.MergeProfilesStats(id, o.at); err != nil {
				return err
			}
			_, err := in.det.Tick()
			return err
		}
	case o.kind == opReport && len(o.items) == 1:
		it := o.items[0]
		start := time.Now()
		err := in.engine.Report(id, it.Pos, it.Time)
		r.reportDur += time.Since(start)
		r.checkins++
		return err
	case o.kind == opReport:
		batch = toBatch(batch, o)
		start := time.Now()
		errs := in.engine.ReportBatch(batch)
		r.reportDur += time.Since(start)
		r.checkins += len(batch)
		if len(errs) > 0 {
			return errs[0].Err
		}
	default:
		if err := in.engine.Report(id, o.pos, clock); err != nil {
			return err
		}
		start := time.Now()
		_, _, err := in.engine.Request(id, o.pos)
		r.reqDur += time.Since(start)
		r.requests++
		return err
	}
	return nil
}

func toBatch(dst []core.BatchReport, o *op) []core.BatchReport {
	dst = dst[:0]
	for _, it := range o.items {
		dst = append(dst, core.BatchReport{UserID: it.UserID, Pos: it.Pos, At: it.Time})
	}
	return dst
}

// checkTableOutputs is the output gate: every obfuscated location an ads
// response served from the table must be one of that user's permanent
// candidates — the table, not fresh noise, answered it.
func checkTableOutputs(e *core.Engine, ids []string, outs []tableOutput) error {
	cands := map[int32]map[geo.Point]bool{}
	for _, o := range outs {
		set, ok := cands[o.uid]
		if !ok {
			entries, err := e.Table(ids[o.uid])
			if err != nil {
				return err
			}
			set = map[geo.Point]bool{}
			for _, en := range entries {
				for _, c := range en.Candidates {
					set[c] = true
				}
			}
			cands[o.uid] = set
		}
		if !set[o.p] {
			return fmt.Errorf("%s was served (%.3f, %.3f) from its table, which holds no such candidate", ids[o.uid], o.p.X, o.p.Y)
		}
	}
	return nil
}

// checkNeverRedrawn is the permanence gate: each user's end-of-setup
// table is a fingerprint-chain prefix of its final table, so no entry was
// replaced or re-obfuscated during the run.
func checkNeverRedrawn(engines []*core.Engine, ids []string, setupTables [][]tableState) error {
	if len(setupTables) != len(engines) {
		return errors.New("setup table states missing")
	}
	for k, e := range engines {
		for uid, s := range setupTables[k] {
			if s.n == 0 {
				continue
			}
			entries, err := e.Table(ids[uid])
			if err != nil {
				return err
			}
			if s.n > len(entries) || core.FingerprintTable(entries[:s.n]) != s.fp {
				return fmt.Errorf("edge %d: %s's table was re-drawn: its %d setup entries are no longer a prefix", k, ids[uid], s.n)
			}
		}
	}
	return nil
}

// hex renders a fingerprint.
func hex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// ratio is a/b, or 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
