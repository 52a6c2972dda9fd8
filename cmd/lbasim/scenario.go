package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/attack"
	"repro/internal/deploy"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// paperBand500 is the paper's reported ceiling for the longitudinal
// attack against the 10-fold ε=1 defense at the 500 m threshold (6.8%);
// the collude gate tolerates one extra user on tiny smoke populations.
const paperBand500 = 0.068

// scenarioResult is one scenario mode's measured outcome.
type scenarioResult struct {
	Mode      string
	Users     int
	Events    int
	Mutations int
	// Streams is the number of distinct advertising identifiers observed
	// (> Users under churn and collude).
	Streams int
	// EntropyMean is the mean per-user entropy of the defended request
	// stream (bits; higher means the observable stream is more spread).
	EntropyMean float64
	// Hits200/Hits500 count users whose top-1 location the longitudinal
	// attack recovers from the defended stream within 200 m / 500 m.
	Hits200 int
	Hits500 int
	// MergeDropped counts check-ins excluded from secure aggregation for
	// falling outside the merge region (traveler exercises this).
	MergeDropped int
	// Degraded counts merges that ran with at least one edge missing.
	Degraded int
}

// collusionResult measures the colluding cross-network adversary: the
// join quality, and the re-identification rates with and without the
// defense. Rates are at the 500 m threshold.
type collusionResult struct {
	Networks int
	Streams  int
	Joins    int
	// Precision is the fraction of multi-stream identities whose members
	// all belong to one ground-truth user; Recall is the fraction of
	// users whose streams fully collapsed into one identity.
	Precision float64
	Recall    float64
	// SingleRate is the per-network adversary: the fraction of pseudonym
	// streams (one-time geo-IND deployment) whose owner's top-1 the
	// attack recovers. ColludeRate is the same adversary after joining
	// logs across networks, per user.
	SingleRate  float64
	ColludeRate float64
	// DefendedRate is the colluding adversary against the Edge-PrivLocAd
	// cluster's output stream — the paper-band check.
	DefendedRate float64
}

// scenarioEdges resolves the edge count: scenarios always run through
// the multi-edge cluster (failover and out-of-region merges are part of
// what they exercise).
func scenarioEdges(edges int) int {
	if edges < 2 {
		return 3
	}
	return edges
}

// runScenario composes the named workload scenario and replays it
// through a multi-edge cluster: events report under the advertising
// identifier the ecosystem observes (the device ID under collude —
// pseudonymization happens at the bid layer, not on the device), merge
// through secure aggregation, and request ads at every event position.
// The longitudinal attack then mines the defended streams, and the
// collude mode additionally mounts the cross-network join with and
// without the defense.
func runScenario(modeName string, users, maxCk, edges int, seed uint64) error {
	mode, err := workload.ParseMode(modeName)
	if err != nil {
		return err
	}
	edges = scenarioEdges(edges)

	tcfg := trace.DefaultConfig()
	tcfg.NumUsers = users
	tcfg.MaxCheckIns = maxCk
	tcfg.Seed = seed
	wl, err := workload.Build(workload.Synthetic{Config: tcfg}, workload.Config{Mode: mode, Seed: seed})
	if err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	wl.Instrument(reg)
	// Traveler events leave the home box, so the edges cover the whole
	// workload extent while secure aggregation still merges only
	// home-region check-ins (out-of-region ones count as Dropped).
	engineCfg, err := deploy.Engine(deploy.Params(), seed)
	if err != nil {
		return err
	}
	cluster, err := deploy.NewCluster(engineCfg, wl.Extent, tcfg.Region.BBox, edges, seed)
	if err != nil {
		return err
	}
	cluster.Instrument(reg)

	// One-time geo-IND comparison deployment for the collude mode: the
	// same events, obfuscated once with planar Laplace instead of the
	// n-fold table — the paper's weak baseline.
	oneTime, err := deploy.NewNomadic()
	if err != nil {
		return err
	}
	oneTimeRnd := randx.New(seed, 0x10CA1)

	res := scenarioResult{
		Mode:      string(mode),
		Users:     wl.Stats.Users,
		Events:    wl.Stats.Events,
		Mutations: wl.Stats.Mutations,
	}

	// Replay. The edge keys profiles by the identifier it is handed:
	// per-generation ad-IDs under churn (a reset looks like a brand-new
	// device), the stable device ID otherwise.
	reportID := func(e workload.Event) string {
		if mode == workload.ModeCollude {
			return e.User
		}
		return e.AdID
	}
	var (
		defended   []attack.Observation // the ad networks' defended view
		oneTimeObs []attack.Observation // same events under one-time geo-IND
		perUserObs = make(map[string][]geo.Point)
		truthOwner = make(map[string]string) // pseudonym -> ground-truth user
	)
	streamIDs := make(map[string]bool)
	for _, st := range wl.Streams {
		if len(st.Events) == 0 {
			continue
		}
		ids := make(map[string]bool)
		for _, e := range st.Events {
			if _, err := cluster.Report(reportID(e), e.Pos, e.Time); err != nil {
				return fmt.Errorf("reporting %s: %w", st.User, err)
			}
			ids[reportID(e)] = true
			truthOwner[e.AdID] = e.User
			streamIDs[e.AdID] = true
		}
		for _, id := range sortedKeys(ids) {
			_, stats, err := cluster.MergeProfilesStats(id, tcfg.End)
			if err != nil {
				return fmt.Errorf("merging %s: %w", id, err)
			}
			if stats.Degraded {
				res.Degraded++
			}
			res.MergeDropped += stats.Dropped
		}
		// The edge computes one obfuscated output per session and serves
		// it to every SDK request in that burst — a burst must never hand
		// the adversary independent noise samples of the same position.
		sessionOut := make(map[int]geo.Point)
		for _, e := range st.Events {
			out, ok := sessionOut[e.Session]
			if !ok {
				var err error
				out, _, err = cluster.Request(reportID(e), e.Pos)
				if err != nil {
					return fmt.Errorf("requesting for %s: %w", st.User, err)
				}
				sessionOut[e.Session] = out
			}
			defended = append(defended, attack.Observation{AdID: e.AdID, Net: e.Net, Loc: out, Time: e.Time})
			perUserObs[e.User] = append(perUserObs[e.User], out)
			if mode == workload.ModeCollude {
				pts, err := oneTime.Obfuscate(oneTimeRnd, e.Pos)
				if err != nil {
					return fmt.Errorf("one-time obfuscation: %w", err)
				}
				oneTimeObs = append(oneTimeObs, attack.Observation{AdID: e.AdID, Net: e.Net, Loc: pts[0], Time: e.Time})
			}
		}
	}
	res.Streams = len(streamIDs)

	// Entropy of the defended stream, mean over users with observations.
	entUsers := 0
	for _, u := range wl.Dataset.Users {
		obs := perUserObs[u.ID]
		if len(obs) == 0 {
			continue
		}
		p, err := profile.Build(obs, 50)
		if err != nil {
			return fmt.Errorf("profiling %s: %w", u.ID, err)
		}
		res.EntropyMean += p.Entropy()
		entUsers++
	}
	if entUsers > 0 {
		res.EntropyMean /= float64(entUsers)
	}

	// The longitudinal attack against the defended per-ad-ID streams: a
	// user counts as compromised if any identifier it ever carried leaks
	// its top-1 location.
	rAlpha, err := engineCfg.Mechanism.ConfidenceRadius(0.05)
	if err != nil {
		return err
	}
	defendedOpts := attack.Options{Theta: 500, ClusterRadius: rAlpha}
	byAdID := groupByAdID(defended)
	for _, u := range wl.Dataset.Users {
		hit200, hit500 := false, false
		for id, owner := range truthOwner {
			if owner != u.ID {
				continue
			}
			inferred, err := attack.TopN(byAdID[id], 1, defendedOpts)
			if err != nil {
				continue // stream too sparse to attack
			}
			truth := []geo.Point{u.TrueTops[0].Pos}
			hit200 = hit200 || attack.Succeeds(inferred, truth, 1, 200)
			hit500 = hit500 || attack.Succeeds(inferred, truth, 1, 500)
		}
		if hit200 {
			res.Hits200++
		}
		if hit500 {
			res.Hits500++
		}
	}

	fmt.Printf("scenario %s: users=%d events=%d mutations=%d ad_id_streams=%d entropy_mean=%.2f bits merge_dropped=%d degraded=%d\n",
		res.Mode, res.Users, res.Events, res.Mutations, res.Streams, res.EntropyMean, res.MergeDropped, res.Degraded)
	fmt.Printf("scenario %s: longitudinal attack on defended streams: top-1 within 200m %d/%d users, within 500m %d/%d\n",
		res.Mode, res.Hits200, res.Users, res.Hits500, res.Users)

	if mode == workload.ModeCollude {
		col, err := runCollusion(wl, oneTimeObs, defended, truthOwner, rAlpha)
		if err != nil {
			return err
		}
		attack.RecordCollusion(reg, &attack.CollusionStats{Joins: col.Joins, Pairs: col.Streams * (col.Streams - 1) / 2})
	}
	return nil
}

// runCollusion mounts the cross-network adversary. The one-time geo-IND
// deployment carries the headline comparison: each network alone attacks
// its pseudonym streams (SingleRate), then the colluding adversary joins
// the logs by timestamp+radius correlation and attacks the merged
// streams (ColludeRate). The same join against the Edge-PrivLocAd
// cluster's output gives DefendedRate. Gates: collusion must strictly
// beat the single-network adversary, and the defense must hold the
// colluding adversary inside the paper band.
func runCollusion(wl *workload.Workload, oneTimeObs, defended []attack.Observation, truthOwner map[string]string, rAlpha float64) (collusionResult, error) {
	col := collusionResult{Networks: wl.Config.Networks}
	users := wl.Stats.Users
	oneTimeOpts := attack.Options{Theta: math.Max(150, rAlpha/4), ClusterRadius: rAlpha}
	defendedOpts := attack.Options{Theta: 500, ClusterRadius: rAlpha}
	top1 := make(map[string]geo.Point, users)
	for _, u := range wl.Dataset.Users {
		top1[u.ID] = u.TrueTops[0].Pos
	}
	succeeds := func(obs []attack.Observation, owner string, opts attack.Options) bool {
		pts := make([]geo.Point, len(obs))
		for i, o := range obs {
			pts[i] = o.Loc
		}
		inferred, err := attack.TopN(pts, 1, opts)
		if err != nil {
			return false
		}
		return attack.Succeeds(inferred, []geo.Point{top1[owner]}, 1, 500)
	}

	// Single-network adversary: every pseudonym stream attacked alone.
	byStream := groupObsByStream(oneTimeObs)
	singleHits := 0
	for _, s := range byStream {
		if succeeds(s, truthOwner[s[0].AdID], oneTimeOpts) {
			singleHits++
		}
	}
	col.Streams = len(byStream)
	col.SingleRate = float64(singleHits) / float64(len(byStream))

	// Colluding adversary: join, then attack the merged streams.
	linked, stats, err := attack.Collude(oneTimeObs, attack.CollusionOptions{})
	if err != nil {
		return collusionResult{}, err
	}
	col.Joins = stats.Joins
	pure, impure := 0, 0
	reidentified := make(map[string]bool)
	collapsed := make(map[string]bool)
	for _, l := range linked {
		owner := truthOwner[l.AdIDs[0]]
		mixed := false
		for _, id := range l.AdIDs[1:] {
			if truthOwner[id] != owner {
				mixed = true
			}
		}
		if len(l.AdIDs) > 1 {
			if mixed {
				impure++
			} else {
				pure++
			}
		}
		if !mixed && len(l.Nets) >= 2 {
			collapsed[owner] = true
		}
		if !mixed && succeeds(l.Observations, owner, oneTimeOpts) {
			reidentified[owner] = true
		}
	}
	if pure+impure > 0 {
		col.Precision = float64(pure) / float64(pure+impure)
	}
	col.Recall = float64(len(collapsed)) / float64(users)
	col.ColludeRate = float64(len(reidentified)) / float64(users)

	// The same colluding adversary against the defended stream.
	defLinked, _, err := attack.Collude(defended, attack.CollusionOptions{})
	if err != nil {
		return collusionResult{}, err
	}
	defReid := make(map[string]bool)
	for _, l := range defLinked {
		owner := truthOwner[l.AdIDs[0]]
		mixed := false
		for _, id := range l.AdIDs[1:] {
			if truthOwner[id] != owner {
				mixed = true
			}
		}
		if !mixed && succeeds(l.Observations, owner, defendedOpts) {
			defReid[owner] = true
		}
	}
	col.DefendedRate = float64(len(defReid)) / float64(users)

	fmt.Printf("collusion: networks=%d pseudonym_streams=%d joins=%d precision=%.2f recall=%.2f\n",
		col.Networks, col.Streams, col.Joins, col.Precision, col.Recall)
	fmt.Printf("collusion: one-time geo-IND re-identification: single-network %.1f%%, colluding %.1f%%; defended colluding %.1f%%\n",
		100*col.SingleRate, 100*col.ColludeRate, 100*col.DefendedRate)

	if col.ColludeRate <= col.SingleRate {
		return collusionResult{}, fmt.Errorf("colluding adversary (%.1f%%) did not beat the single-network attack (%.1f%%)",
			100*col.ColludeRate, 100*col.SingleRate)
	}
	// Paper band: ≤6.8% at 500 m, with one user of slack for tiny smoke
	// populations where a single hit overshoots the band.
	allowed := math.Max(paperBand500*float64(users), 1) / float64(users)
	if col.DefendedRate > allowed+1e-9 {
		return collusionResult{}, fmt.Errorf("defense did not hold against collusion: %.1f%% > %.1f%% band",
			100*col.DefendedRate, 100*allowed)
	}
	fmt.Printf("collusion: defense holds — colluding adversary degraded from %.1f%% to %.1f%% (paper band ≤ %.1f%%)\n",
		100*col.ColludeRate, 100*col.DefendedRate, 100*allowed)
	return col, nil
}

// groupByAdID buckets observation locations per advertising identifier.
func groupByAdID(obs []attack.Observation) map[string][]geo.Point {
	out := make(map[string][]geo.Point)
	for _, o := range obs {
		out[o.AdID] = append(out[o.AdID], o.Loc)
	}
	return out
}

// groupObsByStream buckets observations per (network, ad-ID) stream in
// deterministic order.
func groupObsByStream(obs []attack.Observation) [][]attack.Observation {
	type key struct {
		net  int
		adID string
	}
	m := make(map[key][]attack.Observation)
	for _, o := range obs {
		m[key{o.Net, o.AdID}] = append(m[key{o.Net, o.AdID}], o)
	}
	keys := make([]key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].net != keys[j].net {
			return keys[i].net < keys[j].net
		}
		return keys[i].adID < keys[j].adID
	})
	out := make([][]attack.Observation, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// sortedKeys returns the map's keys sorted (deterministic merge order).
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
