package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/binfmt"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
)

// shardTrace builds a deterministic multi-user check-in trace: each user
// orbits two dense anchor clusters (their top locations) with occasional
// nomadic excursions, enough mass for a profile rebuild to find tops.
func shardTrace(users, perUser int, seed uint64) []BatchReport {
	rnd := randx.New(seed, 0x5A4D)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	items := make([]BatchReport, 0, users*perUser)
	for u := 0; u < users; u++ {
		id := fmt.Sprintf("user-%03d", u)
		home := geo.Point{X: float64(u) * 10_000, Y: 5_000}
		work := home.Add(geo.Point{X: 3_000, Y: 1_500})
		for i := 0; i < perUser; i++ {
			var pos geo.Point
			switch {
			case i%10 == 9: // nomadic
				pos = home.Add(geo.Point{X: rnd.Float64() * 40_000, Y: rnd.Float64() * 40_000})
			case i%3 == 0:
				pos = work.Add(rnd.GaussianPolar(8))
			default:
				pos = home.Add(rnd.GaussianPolar(8))
			}
			items = append(items, BatchReport{
				UserID: id,
				Pos:    pos,
				At:     start.Add(time.Duration(i) * time.Hour),
			})
		}
	}
	return items
}

// feedTrace ingests the trace into a fresh engine with the given shard
// count, either one Report at a time (batch == 1) or through ReportBatch
// in chunks, then rebuilds every profile and answers one request per
// check-in. It returns the engine.
func feedTrace(t *testing.T, items []BatchReport, shards, batch int) *Engine {
	t.Helper()
	cfg := testConfig(t)
	cfg.Shards = shards
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch <= 1 {
		for _, it := range items {
			if err := e.Report(it.UserID, it.Pos, it.At); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for lo := 0; lo < len(items); lo += batch {
			hi := lo + batch
			if hi > len(items) {
				hi = len(items)
			}
			if errs := e.ReportBatch(items[lo:hi]); len(errs) > 0 {
				t.Fatalf("batch [%d:%d]: %v", lo, hi, errs[0].Err)
			}
		}
	}
	now := items[len(items)-1].At.Add(time.Hour)
	if err := e.RebuildAll(now, 4); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFingerprintIdentityAcrossShardsAndBatches is the PR 4 byte-identity
// audit: the same input trace must leave EVERY engine configuration —
// shard counts {1, 8} × ingestion batch sizes {1, 64} — with bit-equal
// obfuscation tables for every user. Sharding and batching are
// performance knobs; if any of them changed a single candidate bit, the
// longitudinal privacy accounting across deployments would silently
// diverge.
func TestFingerprintIdentityAcrossShardsAndBatches(t *testing.T) {
	items := shardTrace(12, 120, 99)
	ref := feedTrace(t, items, 1, 1)
	refUsers := ref.Users()
	if len(refUsers) != 12 {
		t.Fatalf("reference engine knows %d users, want 12", len(refUsers))
	}
	// Capture the reference answer stream once up front: Request advances
	// the per-user RNG, so it must be consumed exactly once per engine.
	type answer struct {
		at  geo.Point
		out geo.Point
		hit bool
	}
	refAnswers := make(map[string]answer, 3)
	for _, id := range refUsers[:3] {
		tops, err := ref.TopLocations(id)
		if err != nil {
			t.Fatal(err)
		}
		out, hit, err := ref.Request(id, tops[0].Loc)
		if err != nil {
			t.Fatal(err)
		}
		refAnswers[id] = answer{at: tops[0].Loc, out: out, hit: hit}
	}

	for _, tc := range []struct{ shards, batch int }{
		{1, 64}, {8, 1}, {8, 64},
	} {
		t.Run(fmt.Sprintf("shards=%d/batch=%d", tc.shards, tc.batch), func(t *testing.T) {
			e := feedTrace(t, items, tc.shards, tc.batch)
			if got := e.Users(); len(got) != len(refUsers) {
				t.Fatalf("engine knows %d users, want %d", len(got), len(refUsers))
			}
			for _, id := range refUsers {
				want, err := ref.TableFingerprint(id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.TableFingerprint(id)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("table fingerprint for %s diverged: %x, want %x", id, got, want)
				}
			}
			// The answer stream must agree too: identical tables + identical
			// RNG positions mean identical posterior selections.
			for _, id := range refUsers[:3] {
				want := refAnswers[id]
				gotOut, gotHit, err := e.Request(id, want.at)
				if err != nil {
					t.Fatal(err)
				}
				if gotOut != want.out || gotHit != want.hit {
					t.Errorf("Request for %s diverged: (%v, %v) vs (%v, %v)", id, gotOut, gotHit, want.out, want.hit)
				}
			}
		})
	}
}

// TestHashUserMatchesFNV pins the inlined user hash to the stdlib FNV-64a
// it replaced: the value seeds every user's RNG stream, so an accidental
// drift would change all obfuscation outputs.
func TestHashUserMatchesFNV(t *testing.T) {
	for _, id := range []string{"", "u", "user-001", "日本語", "a-very-long-user-identifier-0123456789"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(id))
		if got, want := hashUser(id), h.Sum64(); got != want {
			t.Errorf("hashUser(%q) = %x, want %x", id, got, want)
		}
	}
}

// TestReportBatchMatchesSequential checks byte-identity of ReportBatch
// against the one-at-a-time path when the batch interleaves users and
// crosses a profile-window rollover mid-batch.
func TestReportBatchMatchesSequential(t *testing.T) {
	cfg := testConfig(t)
	cfg.ProfileWindow = 48 * time.Hour // roll over mid-trace
	start := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	rnd := randx.New(3, 3)
	var items []BatchReport
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("u%d", i%3) // interleaved users
		items = append(items, BatchReport{
			UserID: id,
			Pos:    geo.Point{X: float64(i%3) * 1000, Y: 0}.Add(rnd.GaussianPolar(5)),
			At:     start.Add(time.Duration(i) * time.Hour),
		})
	}

	seq, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := seq.Report(it.UserID, it.Pos, it.At); err != nil {
			t.Fatal(err)
		}
	}
	bat, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if errs := bat.ReportBatch(items); len(errs) > 0 {
		t.Fatalf("ReportBatch: %v", errs[0].Err)
	}

	for _, id := range seq.Users() {
		want, err := seq.TableFingerprint(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bat.TableFingerprint(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("fingerprint for %s: %x, want %x", id, got, want)
		}
	}
	if a, b := seq.Stats(), bat.Stats(); a != b {
		t.Errorf("stats diverged: %+v vs %+v", b, a)
	}
}

// TestReportBatchEmptyAndErrors covers the degenerate shapes: an empty
// batch is a no-op, and per-item indexes in returned errors point at the
// failing input positions. A check-in whose rollover fails fails alone:
// the rest of its run is applied, and the run's one record still holds
// every item.
func TestReportBatchEmptyAndErrors(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if errs := e.ReportBatch(nil); errs != nil {
		t.Errorf("empty batch returned %v", errs)
	}
	if got := e.Stats().Users; got != 0 {
		t.Errorf("empty batch created %d users", got)
	}

	cfg := testConfig(t)
	cfg.Mechanism = &failOnceMechanism{Mechanism: cfg.Mechanism}
	cfg.ProfileWindow = 4 * time.Hour
	if e, err = NewEngine(cfg); err != nil {
		t.Fatal(err)
	}
	log := &recordingDur{}
	e.SetDurability(log)
	start := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	var items []BatchReport
	for i := 0; i < 8; i++ {
		items = append(items, BatchReport{UserID: "u", Pos: geo.Point{X: 10, Y: 10}, At: start.Add(time.Duration(i) * time.Hour)})
	}
	// Item 4 closes the window and its rebuild fails; item 5 closes it
	// again, and that rebuild succeeds.
	errs := e.ReportBatch(items)
	if len(errs) != 1 || errs[0].Index != 4 || !errors.Is(errs[0].Err, errMechanismDown) {
		t.Fatalf("ReportBatch errors %v, want item 4's failed rollover alone", errs)
	}
	if n, _ := e.TableLen("u"); n != 1 {
		t.Errorf("table holds %d entries, want item 5's one", n)
	}
	if prof, _ := e.PendingProfile("u"); prof.Total() != 2 {
		t.Errorf("%d check-ins pending, want items 6 and 7", prof.Total())
	}
	if len(log.recs) != 1 || log.recs[0][0] != recBatch {
		t.Fatalf("logged %d records, want the run's one batch record", len(log.recs))
	}
	r := binfmt.NewReader(log.recs[0][1:])
	r.Str()
	if n := r.Count(17); n != len(items) {
		t.Errorf("the batch record holds %d items, want all %d", n, len(items))
	}
}

var errMechanismDown = errors.New("mechanism down")

// failOnceMechanism fails its first Obfuscate call, then defers to the
// mechanism it wraps.
type failOnceMechanism struct {
	geoind.Mechanism
	failed bool
}

func (m *failOnceMechanism) Obfuscate(rnd *randx.Rand, p geo.Point) ([]geo.Point, error) {
	if !m.failed {
		m.failed = true
		return nil, errMechanismDown
	}
	return m.Mechanism.Obfuscate(rnd, p)
}

// recordingDur is a durability sink that keeps a copy of every record.
type recordingDur struct{ recs [][]byte }

func (d *recordingDur) Append(rec []byte) (uint64, error) {
	d.recs = append(d.recs, bytes.Clone(rec))
	return uint64(len(d.recs)), nil
}

func (d *recordingDur) NextLSN() uint64 { return uint64(len(d.recs)) + 1 }

// TestEngineShardConcurrency hammers the sharded serving path from many
// goroutines — Report, ReportBatch, Request, RebuildAll, Users, Stats,
// Snapshot — and is meaningful primarily under -race (verify.sh runs the
// whole suite with the detector on).
func TestEngineShardConcurrency(t *testing.T) {
	cfg := testConfig(t)
	cfg.Shards = 8
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		perG    = 200
	)
	start := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := randx.New(uint64(g), 0xC0)
			id := fmt.Sprintf("user-%02d", g%5) // force shard and user sharing
			for i := 0; i < perG; i++ {
				pos := geo.Point{X: float64(g) * 100, Y: 0}.Add(rnd.GaussianPolar(10))
				at := start.Add(time.Duration(i) * time.Minute)
				switch i % 4 {
				case 0:
					if errs := e.ReportBatch([]BatchReport{
						{UserID: id, Pos: pos, At: at},
						{UserID: fmt.Sprintf("user-%02d", (g+1)%5), Pos: pos, At: at},
					}); len(errs) > 0 {
						t.Error(errs[0].Err)
						return
					}
				default:
					if err := e.Report(id, pos, at); err != nil {
						t.Error(err)
						return
					}
				}
				if i%16 == 7 {
					_, _, _ = e.Request(id, pos)
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Users()
			_ = e.Stats()
			if err := e.RebuildAll(start.Add(time.Hour), 2); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := e.Stats().Users; got != 5 {
		t.Errorf("engine knows %d users, want 5", got)
	}
}
