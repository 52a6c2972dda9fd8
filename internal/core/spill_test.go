package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/randx"
	"repro/internal/wal"
)

// tieredConfig returns testConfig with the cold tier enabled at the
// given resident cap (0 = unbounded, eviction only via EvictIdle).
func tieredConfig(t *testing.T, cap int) Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.SpillDir = t.TempDir()
	cfg.MaxResidentUsers = cap
	return cfg
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
	cfg := tieredConfig(t, 0)
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
		n, err := e.EvictIdle(0)
		if err != nil {
			t.Fatalf("EvictIdle: %v", err)
		}
		if n == 0 {
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

// TestRebuildPartSequentialEquivalence pins RebuildPart's contract: K
// sub-rounds with the same timestamp leave the engine byte-identical to
// one RebuildAll call, uncapped and under a resident cap. Capped, the
// rebuild also faults spilled users in while other workers hold theirs,
// so it must end with every shard back at quota: at most
// max(cap, shards) residents.
func TestRebuildPartSequentialEquivalence(t *testing.T) {
	const shards = 8
	items := shardTrace(10, 120, 42)
	now := items[len(items)-1].At.Add(time.Hour)

	build := func(t *testing.T, cap int, rebuild func(e *Engine)) *Engine {
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
		rebuild(e)
		return e
	}

	ref := build(t, 0, func(e *Engine) {
		if err := e.RebuildAll(now, 4); err != nil {
			t.Fatal(err)
		}
	})
	want := snapshotBytes(t, ref)

	for _, parts := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			for _, cap := range []int{0, 4} {
				t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
					e := build(t, cap, func(e *Engine) {
						for k := 0; k < parts; k++ {
							if err := e.RebuildPart(now, 2, k, parts); err != nil {
								t.Fatal(err)
							}
						}
					})
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
						t.Errorf("parts=%d cap=%d: state diverged from RebuildAll", parts, cap)
					}
				})
			}
		})
	}

	// Part index normalization: negative and ≥parts indexes alias into
	// range instead of silently skipping shards.
	e := build(t, 0, func(e *Engine) {
		for k := 0; k < 3; k++ {
			if err := e.RebuildPart(now, 2, k-3, 3); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := snapshotBytes(t, e); !bytes.Equal(got, want) {
		t.Error("negative part indexes diverged from RebuildAll")
	}
}

// TestRebuildPartSkipsSpilledIdle: spilled users with no pending
// check-ins are not faulted in by a rebuild pass — the cold tail must
// cost a map lookup, not disk traffic.
func TestRebuildPartSkipsSpilledIdle(t *testing.T) {
	cfg := tieredConfig(t, 0)
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
	if _, err := e.EvictIdle(0); err != nil {
		t.Fatal(err)
	}
	before := e.TierStats()
	if err := e.RebuildAll(base.Add(3*time.Hour), 2); err != nil {
		t.Fatal(err)
	}
	after := e.TierStats()
	if got := after.FaultIns - before.FaultIns; got != 1 {
		t.Errorf("rebuild faulted in %d users, want 1 (only the one with pending check-ins)", got)
	}
}

// TestRebuildPartRestoresQuota: a fault-in whose quota sweep finds only
// a busy victim leaves its shard over quota, and nothing else would
// touch that shard again. RebuildPart must bring it back to quota even
// when none of the users it rebuilds needs a fault-in.
func TestRebuildPartRestoresQuota(t *testing.T) {
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

	if err := e.RebuildPart(at.Add(time.Hour), 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if ts := e.TierStats(); ts.Resident != 1 || ts.Spilled != 1 {
		t.Errorf("after RebuildPart: %+v, want 1 resident and 1 spilled", ts)
	}
}

// TestSpillTierConcurrencyStress hammers a tiny-cap tiered engine from
// many goroutines — Report, ReportBatch, Request, RebuildAll, EvictIdle,
// Snapshot, fingerprints — at shards {1,8}. Meaningful primarily under
// -race; the final state must still be byte-identical to an untiered
// engine fed the same per-user operation sequence... which concurrency
// makes nondeterministic across users, so the assert here is the tier
// accounting invariant (resident + spilled == users) plus zero spill
// errors, with byte-identity covered by the deterministic tests above.
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
					switch i % 3 {
					case 0:
						if _, err := e.EvictIdle(0); err != nil {
							t.Error(err)
							return
						}
					case 1:
						if err := e.RebuildPart(start.Add(time.Hour), 2, i, 4); err != nil {
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
	if _, err := e.EvictIdle(0); err != nil {
		t.Fatal(err)
	}
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

	// EvictIdle without the tier is a config error, not a silent no-op.
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvictIdle(0); err == nil {
		t.Error("EvictIdle on an untiered engine expected error")
	}
}
