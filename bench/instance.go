package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/logx"
	"repro/internal/par"
	"repro/internal/randx"
	"repro/internal/rtb"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/wal"
)

// campaigns is edged's default -campaigns.
const campaigns = 500

// edgeSeed is edged's default -seed. It drives the deployment's own
// randomness: engine PRNGs, campaign layout, trace IDs and detector
// probes. The program receives only the generated inputs, so --seed
// changes them and nothing else.
const edgeSeed = 1

// instance is one edge deployment under test: a single edge server, or a
// three-edge cluster behind its gateway, listening on loopback.
type instance struct {
	w      *workload
	dir    string
	reg    *telemetry.Registry
	tracer *tracing.Tracer // the server's (or gateway's) request tracer
	http   *httptest.Server
	probes *probes // nil on an untraced instance

	engine *core.Engine
	store  *wal.Store
	server *edge.Server

	cluster *edgecluster.Cluster
	det     *edgecluster.Detector

	// setupTables is every user's table state at the end of setup
	// (indexed [node][uid]; one node for a single edge), filled by
	// recordSetupTables.
	setupTables [][]tableState
}

// tableState is a table's length and fingerprint-chain digest.
type tableState struct {
	n  int
	fp uint64
}

// mechanisms builds edged's default mechanisms: n-fold Gaussian at
// (r, ε, δ, n) = (500 m, 1, 0.01, 10) and planar-Laplace nomadic noise.
// With probes they are wrapped for timing.
func mechanisms(p *probes) (geoind.Mechanism, geoind.Mechanism, error) {
	nfold, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		return nil, nil, fmt.Errorf("building n-fold mechanism: %w", err)
	}
	laplace, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		return nil, nil, fmt.Errorf("building nomadic mechanism: %w", err)
	}
	if p == nil {
		return nfold, laplace, nil
	}
	return timedNFold{nfold, &p.nfold}, timedLaplace{laplace, &p.laplace}, nil
}

// setup builds a deployment in dir and preloads it through the engine's
// public API. This is the work setup_s times.
func setup(w *workload, seed uint64, dir string, ids []string, p *probes, log io.Writer) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work dir: %w", err)
	}
	in := &instance{w: w, dir: dir, probes: p}
	var err error
	if w.cluster {
		err = in.buildCluster(log)
	} else {
		err = in.buildEdge(log)
	}
	if err == nil {
		err = in.preload(seed, ids)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// buildEdge stands up the edge exactly as cmd/edged does with its default
// flags, except that the clock is pinned, the bid log is capped as
// loadgen caps it, and the server sits behind httptest over loopback.
func (in *instance) buildEdge(log io.Writer) error {
	w := in.w
	// edged's default text logger; the serving path only logs errors,
	// provider timeouts and traces slower than 250 ms.
	logger, err := logx.New(logx.FormatText, log)
	if err != nil {
		return err
	}
	mech, nomadic, err := mechanisms(in.probes)
	if err != nil {
		return err
	}
	cfg := core.Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: edgeSeed, Shards: core.DefaultShards}
	if w.maxResident > 0 {
		cfg.SpillDir = filepath.Join(in.dir, "spill")
		cfg.MaxResidentUsers = w.maxResident
	}
	if in.engine, err = core.NewEngine(cfg); err != nil {
		return fmt.Errorf("building engine: %w", err)
	}
	if w.durable {
		policy, interval, err := wal.ParsePolicy("interval")
		if err != nil {
			return err
		}
		if in.store, err = wal.Open(filepath.Join(in.dir, "wal"), wal.Options{Policy: policy, Interval: interval}); err != nil {
			return fmt.Errorf("opening wal: %w", err)
		}
		if _, err := in.engine.Recover(in.store); err != nil {
			return fmt.Errorf("recovering engine: %w", err)
		}
		if in.probes != nil {
			in.engine.SetDurability(timedStore{in.store, in.probes})
		}
	}

	limit := adnet.PlatformLimits()[0] // Google: 5–65 km
	network, err := adnet.NewNetwork(&limit, adnet.WithBidLogCap(1<<16))
	if err != nil {
		return fmt.Errorf("building ad network: %w", err)
	}
	exchange, err := rtb.NewExchange(100*time.Millisecond, 0.05)
	if err != nil {
		return fmt.Errorf("building exchange: %w", err)
	}
	region := city()
	rnd := randx.New(edgeSeed, 0xEDEDED)
	for i := 0; i < campaigns; i++ {
		loc := geo.Point{X: region.MinX + rnd.Float64()*region.Width(), Y: region.MinY + rnd.Float64()*region.Height()}
		if err := network.Register(adnet.Campaign{
			ID:       fmt.Sprintf("campaign-%05d", i),
			Location: loc,
			Radius:   limit.MinRadius + rnd.Float64()*(25_000-limit.MinRadius),
			Ad:       adnet.Ad{ID: fmt.Sprintf("ad-%05d", i), Title: fmt.Sprintf("Offer #%d", i), Location: loc},
		}); err != nil {
			return fmt.Errorf("registering campaign %d: %w", i, err)
		}
	}
	var provider edge.AdProvider = network
	if in.probes != nil {
		provider = timedProvider{network, in.probes}
	}

	in.tracer = tracing.New(edgeSeed, tracing.WithSlowThreshold(250*time.Millisecond), tracing.WithLogger(logger))
	clock := w.serverTime()
	in.server, err = edge.NewServer(in.engine, provider, func() time.Time { return clock }, logger, edge.WithTracer(in.tracer))
	if err != nil {
		return fmt.Errorf("building server: %w", err)
	}
	in.reg = in.server.Registry()
	exchange.Instrument(in.reg)
	par.Instrument(in.reg)
	if in.store != nil {
		in.store.Instrument(in.reg)
	}
	in.listen(in.server.Handler())
	return nil
}

// newCluster lays out three edges as lbasim's buildSimCluster does —
// centres spread along the extent's x axis, each covering the whole
// extent — over the workload's district. shards 0 is the engine default.
func newCluster(mech, nomadic geoind.Mechanism, shards int) (*edgecluster.Cluster, error) {
	const edges = 3
	region := district()
	diag := math.Hypot(region.Width(), region.Height())
	coverage := make([]geo.Circle, edges)
	for i := range coverage {
		coverage[i] = geo.Circle{
			Center: geo.Point{X: region.MinX + (float64(i)+0.5)*region.Width()/edges, Y: region.MinY + region.Height()/2},
			Radius: diag,
		}
	}
	c, err := edgecluster.New(edgecluster.Config{
		Engine:      core.Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: edgeSeed, Shards: shards},
		Coverage:    coverage,
		MergeRegion: region,
		Seed:        edgeSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	return c, nil
}

// buildCluster puts newCluster behind the cluster gateway with lbasim's
// tracer and detector settings.
func (in *instance) buildCluster(log io.Writer) error {
	logger, err := logx.New(logx.FormatText, log)
	if err != nil {
		return err
	}
	mech, nomadic, err := mechanisms(in.probes)
	if err != nil {
		return err
	}
	if in.cluster, err = newCluster(mech, nomadic, 0); err != nil {
		return err
	}
	in.reg = telemetry.NewRegistry()
	in.cluster.Instrument(in.reg)
	in.tracer = tracing.New(edgeSeed, tracing.WithSlowThreshold(250*time.Millisecond), tracing.WithLogger(logger))
	in.tracer.Instrument(in.reg)
	clock := in.w.serverTime()
	gw, err := edgecluster.NewGateway(in.cluster, func() time.Time { return clock }, edgecluster.WithGatewayTracer(in.tracer))
	if err != nil {
		return fmt.Errorf("building gateway: %w", err)
	}
	gw.Instrument(in.reg)
	in.det = newDetector(in.cluster)
	in.listen(gw.Handler())
	return nil
}

// newDetector is lbasim's failure detector over a three-edge cluster.
func newDetector(c *edgecluster.Cluster) *edgecluster.Detector {
	return c.NewDetector(edgecluster.DetectorConfig{Probes: 3, SuspectAfter: 2, ConfirmAfter: 1, Seed: edgeSeed})
}

func (in *instance) listen(h http.Handler) {
	if in.probes != nil {
		h = in.probes.wrapHandler(h, in.cluster != nil)
	}
	in.http = httptest.NewServer(h)
}

// preload feeds every user's setup check-ins through the engine (or
// cluster) API, one batch per user, then — for ads-table — rebuilds every
// profile so each user starts with a permanent table. Each worker's users
// are preloaded by a goroutine of their own; a user's state depends only
// on their own check-ins, so the order across users changes nothing.
func (in *instance) preload(seed uint64, ids []string) error {
	w := in.w
	box := w.homeBox()
	err := eachWorker(func(k int) error {
		items := make([]core.BatchReport, 0, w.preload)
		for uid := k; uid < len(ids); uid += workers {
			items = w.preloadItems(items, box, seed, ids[uid], uid)
			var errs []core.BatchError
			if in.cluster != nil {
				errs = in.cluster.ReportBatch(items)
			} else {
				errs = in.engine.ReportBatch(items)
			}
			if len(errs) > 0 {
				return fmt.Errorf("preloading %s: %w", ids[uid], errs[0].Err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if w.rebuildAfterPreload {
		if err := in.engine.RebuildAll(w.serverTime(), 0); err != nil {
			return fmt.Errorf("rebuilding after preload: %w", err)
		}
	}
	return nil
}

// eachWorker runs f(k) for every worker k concurrently and returns the
// first error.
func eachWorker(f func(k int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = f(k)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// engines lists the deployment's engines: one, or one per edge.
func (in *instance) engines() []*core.Engine {
	if in.cluster == nil {
		return []*core.Engine{in.engine}
	}
	var es []*core.Engine
	for _, n := range in.cluster.Nodes() {
		es = append(es, n.Engine)
	}
	return es
}

// recordSetupTables snapshots every user's table state, the baseline the
// "never re-drawn" gate compares final tables against.
func (in *instance) recordSetupTables(ids []string) error {
	for _, e := range in.engines() {
		states := make([]tableState, len(ids))
		for uid, id := range ids {
			n, fp, err := e.TableState(id)
			if err != nil {
				return fmt.Errorf("reading setup table of %s: %w", id, err)
			}
			states[uid] = tableState{n, fp}
		}
		in.setupTables = append(in.setupTables, states)
	}
	return nil
}

// close stops the listener and releases the engine, WAL and work dir.
func (in *instance) close() {
	if in.http != nil {
		in.http.Close()
	}
	if in.store != nil {
		_ = in.store.Close() // the run is over; nothing reads the log again
	}
	if in.engine != nil {
		_ = in.engine.Close() // deletes spill files
	}
	_ = os.RemoveAll(in.dir)
}
