package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/randx"
)

// footprintSpots are three places farther apart than the match radius,
// visited equally, so a rebuild over their check-ins records three
// table entries.
var footprintSpots = []geo.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}, {X: 2000, Y: 0}}

// footprintCheckIns returns n check-ins an hour apart from start,
// cycling over footprintSpots with a few metres of deterministic jitter.
func footprintCheckIns(userID string, start time.Time, n int) []BatchReport {
	items := make([]BatchReport, n)
	for i := range items {
		jitter := geo.Point{X: float64(i%5) * 2, Y: float64(i%3) * 3}
		items[i] = BatchReport{UserID: userID, Pos: footprintSpots[i%len(footprintSpots)].Add(jitter), At: start.Add(time.Duration(i) * time.Hour)}
	}
	return items
}

// residentUser returns userID's resident state without touching it.
func residentUser(t *testing.T, e *Engine, userID string) *userState {
	t.Helper()
	s, _ := e.shardFor(userID)
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[userID]
	if !ok {
		t.Fatalf("user %q is not resident", userID)
	}
	return u
}

// windowLenCap reads the length and capacity of the user's window.
func windowLenCap(t *testing.T, e *Engine, userID string) (int, int) {
	t.Helper()
	u := residentUser(t, e, userID)
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.window), cap(u.window)
}

// TestPassReleasesWindow: a report's own rollover keeps the emptied
// window's array, because the rest of the report refills it, while a
// rebuild pass or a consuming merge install leaves every emptied window
// with no array at all. That includes a window a rollover emptied
// before the pass. Capacity is never encoded, so the pass's output is
// unchanged; the other tests pin that.
func TestPassReleasesWindow(t *testing.T) {
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	now := start.Add(60 * time.Hour)
	passes := []struct {
		name string
		run  func(*Engine, []string) error
	}{
		{"RebuildAll", func(e *Engine, _ []string) error { return e.RebuildAll(now, 2) }},
		{"RebuildProfile", func(e *Engine, users []string) error {
			for _, id := range users {
				if err := e.RebuildProfile(id, now); err != nil {
					return err
				}
			}
			return nil
		}},
		{"InstallTops", func(e *Engine, users []string) error {
			tops := profile.Profile{{Loc: footprintSpots[0], Freq: 2}, {Loc: geo.Point{X: 9000, Y: 9000}, Freq: 1}}
			for _, id := range users {
				if err := e.InstallTops(id, tops, now); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, shards := range []int{1, 8} {
		for _, pass := range passes {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, pass.name), func(t *testing.T) {
				cfg := testConfig(t)
				cfg.Shards = shards
				cfg.ProfileWindow = 24 * time.Hour
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var users []string
				for i := 0; i < 6; i++ {
					id := fmt.Sprintf("user-%d", i)
					users = append(users, id)
					// 25 hourly check-ins: the last one closes the 24 h
					// window, through Report or inside one ReportBatch.
					items := footprintCheckIns(id, start, 25)
					if i%2 == 0 {
						for _, it := range items {
							if err := e.Report(id, it.Pos, it.At); err != nil {
								t.Fatal(err)
							}
						}
					} else if errs := e.ReportBatch(items); len(errs) > 0 {
						t.Fatal(errs[0].Err)
					}
					if n, c := windowLenCap(t, e, id); n != 0 || c == 0 {
						t.Fatalf("%s after its rollover: window len %d cap %d, want empty with its array kept", id, n, c)
					}
					if i == 5 {
						continue // left with the rollover's empty array
					}
					if errs := e.ReportBatch(footprintCheckIns(id, start.Add(25*time.Hour), 20)); len(errs) > 0 {
						t.Fatal(errs[0].Err)
					}
				}
				if err := pass.run(e, users); err != nil {
					t.Fatal(err)
				}
				for _, id := range users {
					if n, c := windowLenCap(t, e, id); n != 0 || c != 0 {
						t.Errorf("%s after %s: window len %d cap %d, want no array", id, pass.name, n, c)
					}
					if n, err := e.TableLen(id); err != nil || n == 0 {
						t.Errorf("%s after %s: table len %d, %v; want entries", id, pass.name, n, err)
					}
				}
			})
		}
	}
}

// slabsExact fails unless each of the table's four slabs holds exactly
// its length.
func slabsExact(t *testing.T, what string, tb *ObfuscationTable) {
	t.Helper()
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	for _, s := range []struct {
		name     string
		len, cap int
	}{
		{"tops", len(tb.tops), cap(tb.tops)},
		{"createdNs", len(tb.createdNs), cap(tb.createdNs)},
		{"offs", len(tb.offs), cap(tb.offs)},
		{"arena", len(tb.arena), cap(tb.arena)},
	} {
		if s.len == 0 || s.cap != s.len {
			t.Errorf("%s: %s slab len %d cap %d, want a non-empty slab at exactly its length", what, s.name, s.len, s.cap)
		}
	}
}

// TestTableSlabsExact: every call that inserts entries, a rebuild (a
// pass's or a report's rollover), a merge install and a replicated
// import, leaves the table's slabs at exactly their length, as a
// restored table's are.
func TestTableSlabsExact(t *testing.T) {
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Shards = shards
			cfg.ProfileWindow = 24 * time.Hour
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if errs := e.ReportBatch(footprintCheckIns("pass", start, 12)); len(errs) > 0 {
				t.Fatal(errs[0].Err)
			}
			if err := e.RebuildProfile("pass", start.Add(12*time.Hour)); err != nil {
				t.Fatal(err)
			}
			slabsExact(t, "after RebuildProfile", residentUser(t, e, "pass").table)

			// The 25th check-in closes the window inside the batch.
			if errs := e.ReportBatch(footprintCheckIns("rollover", start, 25)); len(errs) > 0 {
				t.Fatal(errs[0].Err)
			}
			slabsExact(t, "after a report's rollover", residentUser(t, e, "rollover").table)

			// Two new places and one the table holds: the install adds
			// two entries to the three the rebuild recorded.
			tops := profile.Profile{
				{Loc: geo.Point{X: 5000, Y: 5000}, Freq: 3},
				{Loc: footprintSpots[1], Freq: 2},
				{Loc: geo.Point{X: 7000, Y: 5000}, Freq: 1},
			}
			if err := e.InstallTops("pass", tops, start.Add(13*time.Hour)); err != nil {
				t.Fatal(err)
			}
			if n, _ := e.TableLen("pass"); n != 5 {
				t.Fatalf("table len %d after the install, want 5", n)
			}
			slabsExact(t, "after InstallTops", residentUser(t, e, "pass").table)

			packed, err := e.PackedTable("pass")
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ImportTable("replica", packed.AppendSuffix(nil, 0)); err != nil {
				t.Fatal(err)
			}
			if err := e.ImportTable("rollover", packed.AppendSuffix(nil, 3)); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"replica", "rollover"} {
				slabsExact(t, "after ImportTable into "+id, residentUser(t, e, id).table)
			}
			if n, _ := e.TableLen("rollover"); n != 5 {
				t.Fatalf("rollover table len %d after importing two entries, want 5", n)
			}
		})
	}
}

// TestInstallMatchesInsertInTurn pins the one-growth insertion to
// Insert called on each top in turn, drawing candidates only for a top
// no entry matches yet: a top within the match radius of an earlier top
// of the same call, or of a recorded entry, draws nothing and records
// nothing, and later tops draw the same candidates.
func TestInstallMatchesInsertInTurn(t *testing.T) {
	cfg := testConfig(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	rounds := []profile.Profile{
		{{Loc: geo.Point{X: 0, Y: 0}}, {Loc: geo.Point{X: 30, Y: 0}}, {Loc: geo.Point{X: 3000, Y: 0}}},
		{{Loc: geo.Point{X: 3020, Y: 10}}, {Loc: geo.Point{X: 6000, Y: 0}}, {Loc: geo.Point{X: 6000, Y: 45}}, {Loc: geo.Point{X: 9000, Y: 0}}},
	}
	want, err := NewObfuscationTable(profile.DefaultConnectivityThreshold)
	if err != nil {
		t.Fatal(err)
	}
	rnd := randx.New(cfg.Seed, hashUser("u"))
	for i, tops := range rounds {
		if err := e.InstallTops("u", tops, at); err != nil {
			t.Fatal(err)
		}
		for _, lf := range tops {
			if _, ok := want.Lookup(lf.Loc); ok {
				continue
			}
			cands, err := cfg.Mechanism.Obfuscate(rnd, lf.Loc)
			if err != nil {
				t.Fatal(err)
			}
			want.Insert(lf.Loc, cands, at)
		}
		if got, _ := e.TableFingerprint("u"); got != FingerprintTable(want.Entries()) {
			t.Fatalf("round %d: table fingerprint %016x, want %016x (%d entries)", i, got, FingerprintTable(want.Entries()), want.Len())
		}
	}
	if n, _ := e.TableLen("u"); n != 4 {
		t.Fatalf("table len %d, want 4", n)
	}
}
