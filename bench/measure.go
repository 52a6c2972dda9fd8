package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/edge"
	"repro/internal/edgecluster"
	"repro/internal/geo"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/wire"
)

// phase is what one measured phase observed.
type phase struct {
	elapsed      time.Duration
	report       []time.Duration // sorted
	query        []time.Duration // sorted
	attempted    int
	failed       int
	checkins     int // explicit check-ins acknowledged
	tableOutputs []tableOutput
	adsFetched   int // ads the edge fetched from the provider
	adsKept      int // ads the clients received after the AOI filter
	merges       int
	degraded     int
	dropped      int
	downs        int
	revives      int
	transitions  int
	ckpt         time.Duration
	ckptBytes    int
	peakHeap     uint64
	peakRSS      uint64
	mem0, mem1   runtime.MemStats
	retries      uint64
	samples      []wireSample
	firstErr     error
}

// tableOutput is the obfuscated location one from_table ads response
// exposed; it must be one of the user's permanent candidates.
type tableOutput struct {
	uid int32
	p   geo.Point
}

// wireSample is one captured request/response pair, replayed through the
// codec after the run to time decode and encode in isolation.
type wireSample struct {
	req  wire.Message
	resp wire.Message // nil when the route answers 204
}

// wireSampleEvery keeps one op in this many for the codec replay.
const wireSampleEvery = 16

// barrier lets the workers run an action at the same point of both op
// streams: the last worker to arrive runs it, then releases the other.
type barrier struct {
	mu      sync.Mutex
	waiting int
	release chan struct{}
}

func (b *barrier) wait(action func()) {
	b.mu.Lock()
	b.waiting++
	if b.waiting == workers {
		action()
		b.waiting = 0
		close(b.release)
		b.release = make(chan struct{})
		b.mu.Unlock()
		return
	}
	ch := b.release
	b.mu.Unlock()
	<-ch
}

// outage is cluster-failover's fault schedule: edge 1 stops answering at
// a third of each worker's budget and answers again at two thirds, where
// the failure detector is ticked until it has revived the edge. Both the
// served run and the replay apply it between the same ops, so which
// check-ins reach which edge is a pure function of the op streams.
type outage struct {
	cluster     *edgecluster.Cluster
	det         *edgecluster.Detector
	transitions []edgecluster.Transition
}

const victim = 1

func (o *outage) begin() error { return o.cluster.SetReachable(victim, false) }

func (o *outage) end() error {
	if err := o.cluster.SetReachable(victim, true); err != nil {
		return err
	}
	cfg := o.det.Cfg()
	for i := 0; i < 4*(cfg.SuspectAfter+cfg.ConfirmAfter) && o.det.Health(victim) != edgecluster.HealthAlive; i++ {
		trs, err := o.det.Tick()
		o.transitions = append(o.transitions, trs...)
		if err != nil {
			return fmt.Errorf("reviving edge %d: %w", victim, err)
		}
	}
	if o.det.Health(victim) != edgecluster.HealthAlive {
		return fmt.Errorf("detector never revived edge %d", victim)
	}
	return nil
}

// phaseBounds returns the op indexes at which cluster-failover's outage
// begins and ends.
func phaseBounds(budget int) (int, int) { return budget / 3, 2 * budget / 3 }

// measureSegments is how many equal parts the measured phase's op budget
// is cut into. Between two parts both workers stop and pause runs; the
// time it takes is not part of the phase.
const measureSegments = 5

// measure drives the instance with both workers' op streams, budget ops
// each, in closed loop: a worker sends its next op only after the
// previous one answered, as an SDK caller does.
func measure(in *instance, seed uint64, ids []string, budget int, pause func()) (*phase, error) {
	w := in.w
	gens := make([]*gen, workers)
	clients := make([]*client.Client, workers)
	retryReg := telemetry.NewRegistry()
	for k := range gens {
		gens[k] = newGen(w, seed, k, ids)
		cl, err := client.New(in.http.URL, nil, client.WithCodec(w.codec))
		if err != nil {
			return nil, err
		}
		cl.Instrument(retryReg)
		clients[k] = cl
	}
	var clientTracer *tracing.Tracer
	if in.probes != nil {
		in.probes.reset()
		clientTracer = tracing.New(seed ^ 0xC11E47)
	}
	var out *outage
	bar := &barrier{release: make(chan struct{})}
	if in.cluster != nil {
		out = &outage{cluster: in.cluster, det: in.det}
	}

	// Each worker records into its own phase, preallocated for its whole
	// budget; they are merged once both finish, so the hot loop shares
	// nothing.
	states := make([]*phase, workers)
	for k := range states {
		states[k] = &phase{report: make([]time.Duration, 0, budget), query: make([]time.Duration, 0, budget)}
	}
	runtime.GC()
	sampler := newMemSampler(100 * time.Millisecond)
	var ph phase
	runtime.ReadMemStats(&ph.mem0)
	start := time.Now()
	var paused time.Duration // written only inside bar.wait's action
	seg := max(1, budget/measureSegments)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := states[k]
			lo, hi := phaseBounds(budget)
			var o op
			for i := 0; i < budget; i++ {
				if i > 0 && i%seg == 0 && i/seg < measureSegments {
					bar.wait(func() {
						t := time.Now()
						pause()
						paused += time.Since(t)
					})
				}
				if out != nil && (i == lo || i == hi) {
					bar.wait(func() {
						var err error
						if i == lo {
							err = out.begin()
						} else {
							err = out.end()
						}
						st.fail(err)
					})
				}
				if w.durable && i == budget/2 {
					bar.wait(func() { st.checkpoint(in) })
				}
				gens[k].next(&o)
				st.do(in, ids, clients[k], clientTracer, &o, in.probes != nil && i%wireSampleEvery == 0)
			}
		}(k)
	}
	wg.Wait()
	ph.elapsed = time.Since(start) - paused
	runtime.ReadMemStats(&ph.mem1)
	ph.peakHeap, ph.peakRSS = sampler.stop()
	ph.retries = retryReg.Counter("client_retries_total", "").Value()
	for _, st := range states {
		ph.merge(st)
	}
	if out != nil {
		for _, tr := range out.transitions {
			ph.countTransition(tr)
		}
	}
	sortDurations(ph.report)
	sortDurations(ph.query)
	return &ph, nil
}

// fail records an op-level error, keeping the first for the report.
func (p *phase) fail(err error) {
	if err == nil {
		return
	}
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// do runs one op against the instance and records its latency, and then
// the merge op the report carries, if any. With
// sample set (traced runs only) the op's messages are kept for the codec
// replay.
func (st *phase) do(in *instance, ids []string, cl *client.Client, ct *tracing.Tracer, o *op, sample bool) {
	ctx := context.Background()
	var root *tracing.Span
	if ct != nil {
		ctx, root = ct.StartTrace(ctx, "client")
	}
	id := ids[o.uid]
	start := time.Now()
	var err error
	var ws wireSample
	switch {
	case o.kind == opReport && len(o.items) == 1:
		it := o.items[0]
		err = cl.Report(ctx, id, it.Pos, it.Time)
		if err == nil {
			st.checkins++
		}
		if sample {
			ws.req = &edge.ReportRequest{UserID: id, Pos: it.Pos, Time: it.Time}
		}
	case o.kind == opReport:
		var resp edge.ReportBatchResponse
		resp, err = cl.ReportBatch(ctx, o.items)
		if err == nil && len(resp.Errors) > 0 {
			err = fmt.Errorf("batch for %s: %d of %d check-ins rejected: %s", id, len(resp.Errors), len(o.items), resp.Errors[0].Error)
		}
		st.checkins += resp.Accepted
		if sample {
			ws.req = &edge.ReportBatchRequest{Reports: append([]edge.ReportRequest(nil), o.items...)}
			ws.resp = &resp
		}
	default:
		var resp edge.AdsResponse
		resp, err = cl.RequestAds(ctx, id, o.pos, adLimit)
		if err == nil && resp.Degraded {
			err = fmt.Errorf("ads for %s: provider timed out, degraded response", id)
		}
		if err == nil {
			st.adsFetched += resp.Fetched
			st.adsKept += len(resp.Ads)
			if resp.FromTable {
				st.tableOutputs = append(st.tableOutputs, tableOutput{uid: int32(o.uid), p: resp.Reported})
			}
		}
		if sample {
			ws.req = &edge.AdsRequest{UserID: id, Pos: o.pos, Limit: adLimit}
			ws.resp = &resp
		}
	}
	d := time.Since(start)
	if root != nil {
		root.End()
		in.probes.clientSpan(root, o.kind, start, d)
	}
	st.record(o.kind, d, err)
	if ws.req != nil && err == nil {
		st.samples = append(st.samples, ws)
	}
	if o.merge {
		start := time.Now()
		err := st.mergeOp(in, id, o.at)
		st.record(opQuery, time.Since(start), err)
	}
}

// record counts one client op and keeps its latency.
func (st *phase) record(kind opKind, d time.Duration, err error) {
	st.attempted++
	st.fail(err)
	if kind == opReport {
		st.report = append(st.report, d)
	} else {
		st.query = append(st.query, d)
	}
}

// mergeOp is cluster-failover's query: one secure-aggregation merge round
// for the user (obfuscation at the lowest live edge, delta replication
// to the rest) followed by one failure-detector tick, as a deployment's
// merge scheduler would run them.
func (st *phase) mergeOp(in *instance, id string, at time.Time) error {
	_, ms, err := in.cluster.MergeProfilesStats(id, at)
	if err != nil {
		return err
	}
	st.merges++
	if ms.Degraded {
		st.degraded++
	}
	st.dropped += ms.Dropped
	trs, err := in.det.Tick()
	for _, tr := range trs {
		st.countTransition(tr)
	}
	return err
}

func (p *phase) countTransition(tr edgecluster.Transition) {
	p.transitions++
	switch {
	case tr.To == edgecluster.HealthDown:
		p.downs++
	case tr.From == edgecluster.HealthDown && tr.To == edgecluster.HealthAlive:
		p.revives++
	}
}

// checkpoint takes durable-tiered's mid-run checkpoint, as edged's
// periodic checkpointer does: a snapshot, then the write. It runs while
// both workers wait at the barrier; the snapshot holds the engine's
// checkpoint lock, which every logged write takes, so a worker left
// running would only wait inside its next request instead, allocating
// alongside the snapshot. A GC cycle runs before and after it, so the
// heap starts and ends it in the same state on every run. Otherwise
// where the collector's cycle falls inside the snapshot decides
// peak_heap_mb: a cycle that marks a half-built ~125 MB snapshot sets
// the next heap goal near 600 MB, and the heap grows to it once the
// snapshot is dropped. The same inputs read either ~430 or ~700 MB.
func (st *phase) checkpoint(in *instance) {
	runtime.GC()
	start := time.Now()
	lsn, data, err := in.engine.Checkpoint()
	if err == nil {
		err = in.store.WriteCheckpoint(lsn, data)
	}
	st.ckpt = time.Since(start)
	st.ckptBytes = len(data)
	if err != nil {
		st.fail(fmt.Errorf("checkpoint: %w", err))
	}
	runtime.GC()
}

// merge folds a worker's record into the phase.
func (p *phase) merge(o *phase) {
	p.report = append(p.report, o.report...)
	p.query = append(p.query, o.query...)
	p.attempted += o.attempted
	p.checkins += o.checkins
	p.tableOutputs = append(p.tableOutputs, o.tableOutputs...)
	p.adsFetched += o.adsFetched
	p.adsKept += o.adsKept
	p.merges += o.merges
	p.degraded += o.degraded
	p.dropped += o.dropped
	p.downs += o.downs
	p.revives += o.revives
	p.transitions += o.transitions
	p.ckpt += o.ckpt
	p.ckptBytes += o.ckptBytes
	p.samples = append(p.samples, o.samples...)
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}
