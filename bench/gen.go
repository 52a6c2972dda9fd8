package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/trace"
)

// workers is the number of closed-loop clients: one per vCPU of the
// development host. Worker w owns the users with uid % workers == w.
const workers = 2

// epoch is the first check-in instant of every user.
var epoch = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)

// Stream selectors of the generator's independent PRNG and hash families.
const (
	streamWorkerBase = 0xBE4C
	streamPreload    = 0x97E10AD
	streamAnchors    = 0xA4C402
	streamTops       = 0x7095
	streamVolume     = 0x501E
)

// calib is the mobility model every workload draws its users from:
// internal/trace's paper-calibrated generator configuration. Each user
// has MinTops..MaxTops top locations uniform over the extent, visits them
// with Zipf(ZipfExponent) frequencies and wanders WanderSigma metres (per
// axis) around them; the rest of their check-ins are nomadic, uniform
// over the extent. A user's activity is proportional to a check-in volume
// drawn log-uniformly from [MinCheckIns, MaxCheckIns], the paper's range.
var calib = trace.DefaultConfig()

// topCDF[n-1] is the cumulative Zipf(calib.ZipfExponent) visit share of
// a user with n top locations, most visited first.
var topCDF = func() [][]float64 {
	cdfs := make([][]float64, calib.MaxTops)
	for n := range cdfs {
		z, err := randx.NewZipf(nil, n+1, calib.ZipfExponent)
		if err != nil {
			panic(err) // DefaultConfig's exponent is positive
		}
		var cum float64
		for _, w := range z.Weights() {
			cum += w
			cdfs[n] = append(cdfs[n], cum)
		}
	}
	return cdfs
}()

// workerStream returns the PRNG stream selector of worker w, avalanched
// so the worker family cannot collide with an additively chosen stream.
func workerStream(w int) uint64 {
	return randx.Mix64(streamWorkerBase + uint64(w)*randx.GoldenGamma)
}

// city is the single-edge workloads' extent: the paper's Shanghai box.
func city() geo.BBox { return calib.Region.BBox }

// district is cluster-failover's extent, a 6 km × 3 km box at the city
// centre. secagg merges carry dense grid histograms over the merge region
// (one cell per 50 m), so a city-wide region would cost ~170 ms and
// ~70 MB per merge and turn the workload into a secagg microbenchmark.
func district() geo.BBox { return geo.BBox{MinX: -3000, MinY: -1500, MaxX: 3000, MaxY: 1500} }

// homeBox is where this workload's users move: its extent minus a
// margin, so wander around a top location stays inside the extent (and
// inside the cluster's merge region).
func (w *workload) homeBox() geo.BBox {
	b, m := city(), 1000.0
	if w.cluster {
		b, m = district(), 300
	}
	return geo.BBox{MinX: b.MinX + m, MinY: b.MinY + m, MaxX: b.MaxX - m, MaxY: b.MaxY - m}
}

// serverTime is the pinned server clock. /v1/ads records an implicit
// check-in at server time, so a wall clock would leak the run's date into
// table state. ads-table pins it to the end of its preload, where setup's
// RebuildAll opened every window, so implicit check-ins never close one;
// the others pin it to the epoch, before every window.
func (w *workload) serverTime() time.Time {
	if w.rebuildAfterPreload {
		return w.checkinTime(w.preload)
	}
	return epoch
}

// checkinTime is the instant of a user's k-th check-in (0-based,
// preload included).
func (w *workload) checkinTime(k int) time.Time {
	return epoch.Add(time.Duration(k) * w.spacing)
}

// userIDs returns the stable ID of every uid.
func userIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("u%06d", i)
	}
	return ids
}

// userHash is a hash of (seed, family, uid, k). A user's fixed traits
// come from it alone, so setup, the workers and the replay agree on them
// without sharing PRNG draws.
func userHash(seed, family uint64, uid, k int) uint64 {
	return randx.Mix64(seed ^ randx.Mix64(family+uint64(uid)*randx.GoldenGamma+uint64(k)))
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// uniformIn places a point in box from two hashes.
func uniformIn(box geo.BBox, hx, hy uint64) geo.Point {
	return geo.Point{X: box.MinX + unit(hx)*box.Width(), Y: box.MinY + unit(hy)*box.Height()}
}

// numTops is how many top locations uid has.
func numTops(seed uint64, uid int) int {
	return calib.MinTops + int(userHash(seed, streamTops, uid, 0)%uint64(calib.MaxTops-calib.MinTops+1))
}

// anchor is uid's k-th top location.
func anchor(box geo.BBox, seed uint64, uid, k int) geo.Point {
	h := userHash(seed, streamAnchors, uid, k)
	return uniformIn(box, randx.Mix64(h+1), randx.Mix64(h+2))
}

// volume is uid's check-in volume, log-uniform over calib's range; a user
// is picked for an op in proportion to it.
func volume(seed uint64, uid int) float64 {
	lo, hi := math.Log(float64(calib.MinCheckIns)), math.Log(float64(calib.MaxCheckIns))
	return math.Exp(lo + unit(userHash(seed, streamVolume, uid, 0))*(hi-lo))
}

// nomadicChance is the probability that a user's k-th check-in (0-based)
// is nomadic: calib.NomadicScale·(√(k+1) − √k), at most 1. The sum over a
// user's first n check-ins telescopes to NomadicScale·√n, the nomadic
// count trace.Generate gives a user of volume n.
func nomadicChance(k int) float64 {
	return min(1, calib.NomadicScale*(math.Sqrt(float64(k+1))-math.Sqrt(float64(k))))
}

// visit draws where uid is at their k-th check-in: nomadic, or wandering
// around a top location picked by its visit share. An ad request is made
// where the device is, so its position is drawn the same way.
func (w *workload) visit(box geo.BBox, seed uint64, rnd *randx.Rand, uid, k int) geo.Point {
	if rnd.Float64() < nomadicChance(k) {
		return uniformIn(box, rnd.Uint64(), rnd.Uint64())
	}
	cdf := topCDF[numTops(seed, uid)-1]
	t := min(sort.SearchFloat64s(cdf, rnd.Float64()), len(cdf)-1)
	return anchor(box, seed, uid, t).Add(rnd.GaussianPolar(calib.WanderSigma))
}

// preloadItems fills dst with uid's setup check-ins (indexes
// 0..preload-1), drawn from a per-user stream so any subset of users can
// be preloaded in any order.
func (w *workload) preloadItems(dst []core.BatchReport, box geo.BBox, seed uint64, id string, uid int) []core.BatchReport {
	rnd := randx.New(seed, randx.Mix64(streamPreload+uint64(uid)*randx.GoldenGamma))
	dst = dst[:0]
	for k := 0; k < w.preload; k++ {
		dst = append(dst, core.BatchReport{UserID: id, Pos: w.visit(box, seed, rnd, uid, k), At: w.checkinTime(k)})
	}
	return dst
}

type opKind uint8

const (
	opReport opKind = iota
	opQuery         // POST /v1/ads, or the merge op on cluster-failover
)

// op is one client operation. The slices are owned by the generator and
// reused: an op is valid until the next call to next.
type op struct {
	kind  opKind
	uid   int
	items []edge.ReportRequest // report: the batch
	pos   geo.Point            // ads: the user's true position
	// merge makes a report op carry the merge op that follows it, at
	// instant at. The two are one step of the stream, so the outage can
	// never begin between a batch and its merge: a user whose every
	// check-in went to the edge that just became unreachable would have
	// no live edge to merge from.
	merge bool
	at    time.Time
}

// gen produces one worker's op stream on the fly. The stream is a pure
// function of (workload, seed, worker), and a worker only ever touches
// its own users, so the per-user op sequence — and hence the final engine
// state — does not depend on how the two workers interleave.
type gen struct {
	w      *workload
	seed   uint64
	worker int
	ids    []string
	box    geo.BBox
	rnd    *randx.Rand
	// cum is the running sum of the owned users' volumes: pickUser draws
	// a user in proportion to their volume.
	cum []float64
	// Per owned user (index uid / workers): check-ins issued so far,
	// preload included, and report ops issued in the measured phase.
	clock   []int32
	batches []int32
	items   []edge.ReportRequest
}

func newGen(w *workload, seed uint64, worker int, ids []string) *gen {
	n := (w.users - worker + workers - 1) / workers
	g := &gen{
		w: w, seed: seed, worker: worker, ids: ids, box: w.homeBox(),
		rnd:     randx.New(seed, workerStream(worker)),
		cum:     make([]float64, n),
		clock:   make([]int32, n),
		batches: make([]int32, n),
		items:   make([]edge.ReportRequest, 0, w.batch),
	}
	var total float64
	for i := range g.clock {
		g.clock[i] = int32(w.preload)
		total += volume(seed, i*workers+worker)
		g.cum[i] = total
	}
	return g
}

func (g *gen) pickUser() int {
	local := sort.SearchFloat64s(g.cum, g.rnd.Float64()*g.cum[len(g.cum)-1])
	return min(local, len(g.cum)-1)*workers + g.worker
}

// next fills o with the stream's next op.
func (g *gen) next(o *op) {
	w := g.w
	report := w.mergeEvery > 0 || g.rnd.IntN(w.reportW+w.queryW) < w.reportW
	uid := g.pickUser()
	local := uid / workers
	if !report {
		*o = op{kind: opQuery, uid: uid, pos: w.visit(g.box, g.seed, g.rnd, uid, int(g.clock[local]))}
		return
	}
	g.items = g.items[:0]
	for i := 0; i < w.batch; i++ {
		k := int(g.clock[local])
		g.items = append(g.items, edge.ReportRequest{UserID: g.ids[uid], Pos: w.visit(g.box, g.seed, g.rnd, uid, k), Time: w.checkinTime(k)})
		g.clock[local]++
	}
	g.batches[local]++
	*o = op{kind: opReport, uid: uid, items: g.items}
	if w.mergeEvery > 0 && int(g.batches[local])%w.mergeEvery == 0 {
		o.merge, o.at = true, w.checkinTime(int(g.clock[local])-1)
	}
}
