package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/binfmt"
	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/wal"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// tieredConfig returns testConfig with the cold tier on at the given
// resident cap.
func tieredConfig(t *testing.T, cap int) Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.SpillDir = t.TempDir()
	cfg.MaxResidentUsers = cap
	return cfg
}

// noCap is a resident cap no test population reaches: the cold tier is
// on, and only evictAll spills anyone.
const noCap = 1 << 30

// evictAll spills every resident user through evictLocked, the quota
// sweep's eviction, and returns how many it spilled. A user locked by
// another goroutine is waited for.
func evictAll(t *testing.T, e *Engine) int {
	t.Helper()
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for len(s.ring) > 0 {
			v := s.ring[len(s.ring)-1]
			v.u.mu.Lock()
			err := e.evictLocked(s, v.id, v.u)
			v.u.mu.Unlock()
			if err != nil {
				s.mu.Unlock()
				t.Fatal(err)
			}
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// feedTraceTiered is feedTrace with a resident cap: same trace, same
// rebuild, but users churn through the spill tier the whole way.
func feedTraceTiered(t *testing.T, items []BatchReport, shards, batch, cap int) *Engine {
	t.Helper()
	cfg := tieredConfig(t, cap)
	cfg.Shards = shards
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	if batch <= 1 {
		for _, it := range items {
			if err := e.Report(it.UserID, it.Pos, it.At); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for lo := 0; lo < len(items); lo += batch {
			hi := min(lo+batch, len(items))
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

// TestFingerprintIdentityAcrossResidentCaps extends the PR 4 audit
// matrix with the memory-tier dimension: shards {1,8} × batch {1,64} ×
// resident cap {uncapped+untiered, tiny}. A tiny cap forces constant
// evict/fault-in churn during ingestion, and the resulting engine must
// be byte-identical — same table fingerprints, same Snapshot stream —
// to the all-resident reference. If eviction moved a single candidate
// bit or PRNG position, the longitudinal privacy accounting would
// silently diverge between capped and uncapped deployments.
func TestFingerprintIdentityAcrossResidentCaps(t *testing.T) {
	items := shardTrace(12, 120, 99)
	ref := feedTrace(t, items, 1, 1) // untiered reference
	refUsers := ref.Users()
	want := snapshotBytes(t, ref)
	wantFPs := fingerprints(t, ref)

	for _, tc := range []struct{ shards, batch, cap int }{
		{1, 1, 4}, {1, 64, 4}, {8, 1, 4}, {8, 64, 4},
	} {
		t.Run(fmt.Sprintf("shards=%d/batch=%d/cap=%d", tc.shards, tc.batch, tc.cap), func(t *testing.T) {
			e := feedTraceTiered(t, items, tc.shards, tc.batch, tc.cap)
			ts := e.TierStats()
			if ts.Evictions == 0 || ts.FaultIns == 0 {
				t.Fatalf("cap=%d saw no tier churn: %+v", tc.cap, ts)
			}
			if ts.SpillErrors != 0 {
				t.Errorf("spill errors: %+v", ts)
			}
			if got := e.Users(); len(got) != len(refUsers) {
				t.Fatalf("engine knows %d users, want %d", len(got), len(refUsers))
			}
			if got := fingerprints(t, e); len(got) != len(wantFPs) {
				t.Fatalf("fingerprints for %d users, want %d", len(got), len(wantFPs))
			} else {
				for id, fp := range wantFPs {
					if got[id] != fp {
						t.Errorf("fingerprint for %s diverged: %016x, want %016x", id, got[id], fp)
					}
				}
			}
			if got := snapshotBytes(t, e); !bytes.Equal(got, want) {
				t.Errorf("snapshot differs under cap (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestEvictFaultInCycleByteIdentity drives the full workload mix on a
// tiered engine and an untiered reference, then cycles the tiered one
// through evict-everything → mutating touches (which fault users back
// in, advancing their PRNGs) → evict again, applying the same touches
// to the reference. The two must stay byte-identical at every step:
// eviction must preserve the exact PRNG position, table bytes, and
// pending window, or the answer streams would fork.
func TestEvictFaultInCycleByteIdentity(t *testing.T) {
	cfg := tieredConfig(t, noCap)
	cfg.Shards = 4
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	refCfg := testConfig(t)
	refCfg.Shards = 4
	ref, err := NewEngine(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, e, 8)
	driveWorkload(t, ref, 8)
	if got, want := snapshotBytes(t, e), snapshotBytes(t, ref); !bytes.Equal(got, want) {
		t.Fatal("tiered and reference engines diverged before any eviction")
	}

	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for cycle := 0; cycle < 3; cycle++ {
		if n := evictAll(t, e); n == 0 {
			t.Fatalf("cycle %d evicted nothing", cycle)
		}
		if ts := e.TierStats(); ts.Resident != 0 {
			t.Fatalf("cycle %d: %d users still resident", cycle, ts.Resident)
		}
		// Snapshot and fingerprints must read through the cold tier
		// without promoting anyone.
		if got, want := snapshotBytes(t, e), snapshotBytes(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: snapshot differs while spilled", cycle)
		}
		if ts := e.TierStats(); ts.Resident != 0 {
			t.Fatalf("snapshot faulted users in: %+v", ts)
		}
		for _, id := range ref.Users() {
			want, err := ref.TableFingerprint(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.TableFingerprint(id)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("cycle %d: fingerprint for %s diverged", cycle, id)
			}
		}
		// Mutating touches fault every user back in; the reference takes
		// the identical operations, so any PRNG or state drift introduced
		// by the evict/fault-in round trip shows up in the next compare.
		at := base.Add(time.Duration(cycle) * time.Hour)
		for _, id := range ref.Users() {
			for _, eng := range []*Engine{e, ref} {
				if err := eng.Report(id, geo.Point{X: 100, Y: 200}, at); err != nil {
					t.Fatal(err)
				}
				if _, _, err := eng.Request(id, geo.Point{X: 90_000, Y: 90_000}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ts := e.TierStats(); ts.Resident == 0 || ts.Spilled != 0 {
			t.Fatalf("fault-in did not promote: %+v", ts)
		}
		if got, want := snapshotBytes(t, e), snapshotBytes(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: post-fault-in snapshot diverged", cycle)
		}
	}
}

// TestRebuildAllUnderCap: a RebuildAll at any worker count, uncapped
// (cap=0) or under a resident cap, leaves the engine byte-identical to
// an uncapped four-worker RebuildAll. Capped, the pass also faults
// spilled users in while other workers hold theirs, so it must end with
// every shard back at quota: at most max(cap, shards) residents.
func TestRebuildAllUnderCap(t *testing.T) {
	const shards = 8
	items := shardTrace(10, 120, 42)
	now := items[len(items)-1].At.Add(time.Hour)

	build := func(t *testing.T, cap, parallelism int) *Engine {
		cfg := testConfig(t)
		if cap > 0 {
			cfg = tieredConfig(t, cap)
		}
		cfg.Shards = shards
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		if errs := e.ReportBatch(items); len(errs) > 0 {
			t.Fatalf("ReportBatch: %v", errs[0].Err)
		}
		if err := e.RebuildAll(now, parallelism); err != nil {
			t.Fatal(err)
		}
		return e
	}

	want := snapshotBytes(t, build(t, 0, 4))
	for _, workers := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, cap := range []int{0, 1, 4} {
				t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
					e := build(t, cap, workers)
					if cap > 0 {
						ts := e.TierStats()
						if ts.Evictions == 0 || ts.FaultIns == 0 {
							t.Errorf("cap=%d saw no tier churn: %+v", cap, ts)
						}
						if ts.Resident > max(cap, shards) {
							t.Errorf("%d users resident after the rebuild, want at most %d: %+v", ts.Resident, max(cap, shards), ts)
						}
					}
					if got := snapshotBytes(t, e); !bytes.Equal(got, want) {
						t.Errorf("workers=%d cap=%d: state diverged from the uncapped RebuildAll", workers, cap)
					}
				})
			}
		})
	}
}

// TestRebuildAllSkipsSpilledIdle: spilled users with no pending
// check-ins are not faulted in by a rebuild pass — the cold tail must
// cost a map lookup, not disk traffic.
func TestRebuildAllSkipsSpilledIdle(t *testing.T) {
	cfg := tieredConfig(t, noCap)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("u%d", i)
		for k := 0; k < 6; k++ {
			if err := e.Report(id, geo.Point{X: float64(i) * 1000, Y: 0}, base.Add(time.Duration(k)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Close every window: all users end up with zero pending check-ins.
	if err := e.RebuildAll(base.Add(time.Hour), 2); err != nil {
		t.Fatal(err)
	}
	// u0 gets fresh pending traffic; then evict everyone.
	if err := e.Report("u0", geo.Point{X: 10, Y: 10}, base.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	evictAll(t, e)
	before := e.TierStats()
	if err := e.RebuildAll(base.Add(3*time.Hour), 2); err != nil {
		t.Fatal(err)
	}
	after := e.TierStats()
	if got := after.FaultIns - before.FaultIns; got != 1 {
		t.Errorf("rebuild faulted in %d users, want 1 (only the one with pending check-ins)", got)
	}
}

// TestRebuildAllRestoresQuota: a fault-in whose quota sweep finds only
// a busy victim leaves its shard over quota, and nothing else would
// touch that shard again. RebuildAll must bring it back to quota even
// when none of the users it rebuilds needs a fault-in.
func TestRebuildAllRestoresQuota(t *testing.T) {
	cfg := tieredConfig(t, 1)
	cfg.Shards = 1
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	at := time.Date(2021, 3, 1, 9, 0, 0, 0, time.UTC)
	for _, id := range []string{"a", "b"} {
		if err := e.Report(id, geo.Point{X: 10, Y: 20}, at); err != nil {
			t.Fatal(err)
		}
	}
	// Clear every pending window, so no spilled user is a rebuild target.
	if err := e.RebuildAll(at, 1); err != nil {
		t.Fatal(err)
	}
	s := &e.shards[0]
	s.mu.RLock()
	var heldID string
	var held *userState
	for id, u := range s.users {
		heldID, held = id, u
	}
	s.mu.RUnlock()
	if ts := e.TierStats(); ts.Resident != 1 || held == nil {
		t.Fatalf("setup: %+v", ts)
	}
	spilled := "a"
	if heldID == "a" {
		spilled = "b"
	}

	// Fault the spilled user in while the only other resident is locked,
	// as a rebuild worker would hold it.
	held.mu.Lock()
	err = e.Report(spilled, geo.Point{X: 10, Y: 20}, at.Add(time.Minute))
	held.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if ts := e.TierStats(); ts.Resident != 2 {
		t.Fatalf("busy victim was evicted anyway: %+v", ts)
	}

	if err := e.RebuildAll(at.Add(time.Hour), 1); err != nil {
		t.Fatal(err)
	}
	if ts := e.TierStats(); ts.Resident != 1 || ts.Spilled != 1 {
		t.Errorf("after RebuildAll: %+v, want 1 resident and 1 spilled", ts)
	}
}

// TestSpillTierConcurrencyStress hammers a tiny-cap tiered engine from
// many goroutines — Report, ReportBatch, Request, RebuildAll, Snapshot,
// fingerprints, with the cap evicting throughout — at shards {1,8}.
// Meaningful primarily under -race; the final state must still be
// byte-identical to an untiered engine fed the same per-user operation
// sequence... which concurrency makes nondeterministic across users, so
// the assert here is the tier accounting invariant (resident + spilled
// == users) plus zero spill errors, with byte-identity covered by the
// deterministic tests above.
func TestSpillTierConcurrencyStress(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := tieredConfig(t, 3)
			cfg.Shards = shards
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			const (
				writers = 6
				perG    = 150
				nUsers  = 12
			)
			start := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rnd := randx.New(uint64(g), 0xE1)
					for i := 0; i < perG; i++ {
						id := fmt.Sprintf("user-%02d", (g*perG+i)%nUsers)
						pos := geo.Point{X: float64(g) * 100, Y: 0}.Add(rnd.GaussianPolar(10))
						at := start.Add(time.Duration(i) * time.Minute)
						switch i % 5 {
						case 0:
							if errs := e.ReportBatch([]BatchReport{
								{UserID: id, Pos: pos, At: at},
								{UserID: fmt.Sprintf("user-%02d", (g+i)%nUsers), Pos: pos, At: at},
							}); len(errs) > 0 {
								t.Error(errs[0].Err)
								return
							}
						case 3:
							_, _, _ = e.Request(id, pos)
						default:
							if err := e.Report(id, pos, at); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(g)
			}
			stop := make(chan struct{})
			var aux sync.WaitGroup
			aux.Add(1)
			go func() {
				defer aux.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					switch i % 2 {
					case 0:
						if err := e.RebuildAll(start.Add(time.Hour), 2); err != nil {
							t.Error(err)
							return
						}
					default:
						var buf bytes.Buffer
						if err := e.Snapshot(&buf); err != nil {
							t.Error(err)
							return
						}
						for _, id := range e.Users() {
							if _, err := e.TableFingerprint(id); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			aux.Wait()
			ts := e.TierStats()
			if ts.SpillErrors != 0 {
				t.Errorf("spill errors under stress: %+v", ts)
			}
			if got := ts.Resident + ts.Spilled; got != nUsers {
				t.Errorf("resident %d + spilled %d = %d, want %d users", ts.Resident, ts.Spilled, got, nUsers)
			}
			if got := e.Stats().Users; got != nUsers {
				t.Errorf("engine counts %d users, want %d", got, nUsers)
			}
		})
	}
}

// TestRecoverWithSpilledUsers is the WAL × spill interaction: a capped
// engine checkpoints while its whole population is spilled, takes more
// traffic (for users both resident and spilled at checkpoint time), then
// crashes. Recovery into a fresh capped engine — whose replay itself
// churns the tier — must land byte-identical to the survivor.
func TestRecoverWithSpilledUsers(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredConfig(t, 2)
	cfg.Shards = 4
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(st); err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, e, 8)
	// Spill everything, then checkpoint: the snapshot is taken with the
	// entire population cold.
	evictAll(t, e)
	before := e.TierStats()
	if before.Resident != 0 || before.Spilled == 0 {
		t.Fatalf("pre-checkpoint tier state: %+v", before)
	}
	lsn, data, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint copies spilled users' frames as stored: nobody is
	// faulted in to be encoded.
	if after := e.TierStats(); after.FaultIns != before.FaultIns || after.Resident != before.Resident {
		t.Errorf("checkpoint moved the tier: %+v, then %+v", before, after)
	}
	if err := st.WriteCheckpoint(lsn, data); err != nil {
		t.Fatal(err)
	}
	// Tail traffic for a user that was spilled at checkpoint time: the
	// replay must fault it in from the restored state, not resurrect an
	// empty user.
	base := time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		if err := e.Report("alice", geo.Point{X: 1000 + float64(i), Y: 1000}, base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RebuildProfile("alice", base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Request("alice", geo.Point{X: 1000, Y: 1000}); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, e)
	wantFPs := fingerprints(t, e)

	st2, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg2 := tieredConfig(t, 2)
	cfg2.Shards = 4
	e2, err := NewEngine(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	stats, err := e2.Recover(st2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.CheckpointLSN != lsn || stats.Replayed != 12 {
		t.Errorf("stats = %+v, want checkpoint %d + 12 replayed", stats, lsn)
	}
	if got := snapshotBytes(t, e2); !bytes.Equal(got, want) {
		t.Error("recovered snapshot diverged from pre-crash state")
	}
	gotFPs := fingerprints(t, e2)
	for id, fp := range wantFPs {
		if gotFPs[id] != fp {
			t.Errorf("user %s: fingerprint %016x, want %016x", id, gotFPs[id], fp)
		}
	}
}

// TestUserFrameAboveReadBound holds one user whose frame passes the 16
// MiB bound a streamed WAL record may claim: 760,000 pending check-ins
// of about 23 encoded bytes each, all inside one profile window, which
// nothing caps. The checkpoint holding that frame must restore, and the
// spilled frame must fault back in. The test keeps its heap near what
// is live (a low GC percent, digests instead of snapshots, one engine at
// a time), since each copy of the user is tens of megabytes; the race
// detector's shadow memory would still triple it, for one goroutine.
func TestUserFrameAboveReadBound(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine test whose heap the race detector triples")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	dir := t.TempDir()
	digest := func(e *Engine) [sha256.Size]byte {
		h := sha256.New()
		if err := e.Snapshot(h); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	want, lsn := func() ([sha256.Size]byte, uint64) {
		e, err := NewEngine(tieredConfig(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Recover(st); err != nil {
			t.Fatal(err)
		}
		const n, batch = 760_000, 50_000
		base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
		items := make([]BatchReport, 0, batch)
		for i := 0; i < n; i++ {
			at := base.Add(time.Duration(i) * 10 * time.Second)
			items = append(items, BatchReport{UserID: "big", Pos: geo.Point{X: float64(i % 1000), Y: float64(i / 1000)}, At: at})
			if len(items) == batch || i == n-1 {
				if errs := e.ReportBatch(items); len(errs) != 0 {
					t.Fatalf("ReportBatch: %v", errs[0].Err)
				}
				items = items[:0]
			}
		}
		lsn, data, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		// The snapshot is a small header frame and the user's record, so
		// a snapshot past the bound holds a user frame past it.
		if len(data) <= binfmt.MaxPayload+binfmt.HeaderSize+64 {
			t.Fatalf("checkpoint of %d bytes holds no user frame past %d bytes", len(data), binfmt.MaxPayload)
		}
		if err := st.WriteCheckpoint(lsn, data); err != nil {
			t.Fatal(err)
		}
		data = nil
		evictAll(t, e)
		before := e.TierStats()
		if before.Spilled != 1 {
			t.Fatalf("after evictAll: %+v, want the user spilled", before)
		}
		if err := e.Report("big", geo.Point{X: 1, Y: 1}, base.Add(n*10*time.Second)); err != nil {
			t.Fatalf("fault-in: %v", err)
		}
		if after := e.TierStats(); after.FaultIns != before.FaultIns+1 {
			t.Fatalf("report on the spilled user: %+v, then %+v; want one fault-in", before, after)
		}
		return digest(e), lsn
	}()

	st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, err := NewEngine(tieredConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stats, err := e.Recover(st)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.CheckpointLSN != lsn || stats.Replayed != 1 {
		t.Errorf("stats = %+v, want checkpoint %d + 1 replayed", stats, lsn)
	}
	if digest(e) != want {
		t.Error("recovered snapshot diverged from pre-crash state")
	}
}

// TestCloseRefusesLaterSpills: after Close, an eviction fails instead
// of reopening a spill file that would outlive the engine, and a
// spilled user fails to fault in instead of reading its old offset in
// some newer file.
func TestCloseRefusesLaterSpills(t *testing.T) {
	cfg := tieredConfig(t, 1)
	cfg.Shards = 1
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 3, 1, 9, 0, 0, 0, time.UTC)
	for _, id := range []string{"a", "b"} {
		if err := e.Report(id, geo.Point{X: 10, Y: 20}, at); err != nil {
			t.Fatal(err)
		}
	}
	if ts := e.TierStats(); ts.Spilled != 1 {
		t.Fatalf("setup: %+v, want a spilled", ts)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// c joins the resident tier; its quota sweep's eviction of b fails.
	if err := e.Report("c", geo.Point{X: 10, Y: 20}, at); err != nil {
		t.Fatal(err)
	}
	if ts := e.TierStats(); ts.SpillErrors == 0 || ts.Spilled != 1 {
		t.Errorf("after Close: %+v, want a failed eviction and a still spilled", ts)
	}
	if files, _ := filepath.Glob(filepath.Join(cfg.SpillDir, "*")); len(files) != 0 {
		t.Errorf("spill files after Close: %v", files)
	}
	if err := e.Report("a", geo.Point{X: 10, Y: 20}, at); !errors.Is(err, os.ErrClosed) {
		t.Errorf("fault-in after Close: %v, want %v", err, os.ErrClosed)
	}
}

// TestSpillConfigValidation covers the tiering knobs' validation and
// the nextPow2 clamp.
func TestSpillConfigValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxResidentUsers = 10 // no SpillDir
	if _, err := NewEngine(cfg); err == nil {
		t.Error("MaxResidentUsers without SpillDir expected error")
	}
	cfg = testConfig(t)
	cfg.SpillDir = t.TempDir()
	cfg.MaxResidentUsers = -1
	if _, err := NewEngine(cfg); err == nil {
		t.Error("negative MaxResidentUsers expected error")
	}
	cfg = testConfig(t)
	cfg.Shards = MaxShards + 1
	if _, err := NewEngine(cfg); err == nil {
		t.Error("Shards > MaxShards expected error")
	}

	// nextPow2 terminates and clamps for absurd inputs instead of
	// spinning toward overflow.
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
		{MaxShards, MaxShards}, {MaxShards + 1, MaxShards},
		{int(^uint(0) >> 1), MaxShards}, // max int
	} {
		if got := nextPow2(tc.in); got != tc.want {
			t.Errorf("nextPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
