package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/profile"
)

func TestNewObfuscationTableValidation(t *testing.T) {
	for _, r := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewObfuscationTable(r); err == nil {
			t.Errorf("radius %g expected error", r)
		}
	}
	tbl, err := NewObfuscationTable(50)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.MatchRadius() != 50 || tbl.Len() != 0 {
		t.Errorf("fresh table: radius=%g len=%d", tbl.MatchRadius(), tbl.Len())
	}
}

func TestTableInsertLookup(t *testing.T) {
	tbl, err := NewObfuscationTable(50)
	if err != nil {
		t.Fatal(err)
	}
	top := geo.Point{X: 100, Y: 100}
	cands := []geo.Point{{X: 500, Y: 500}, {X: -300, Y: 200}}
	now := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

	entry, created := tbl.Insert(top, cands, now)
	if !created {
		t.Fatal("first insert should create")
	}
	if len(entry.Candidates) != 2 || !entry.CreatedAt.Equal(now) {
		t.Errorf("entry = %+v", entry)
	}

	// Lookup within the match radius finds the entry.
	got, ok := tbl.Lookup(geo.Point{X: 120, Y: 110})
	if !ok || got.Top != top {
		t.Errorf("Lookup near = %+v, %v", got, ok)
	}
	// Outside the radius misses.
	if _, ok := tbl.Lookup(geo.Point{X: 200, Y: 200}); ok {
		t.Error("Lookup far should miss")
	}
}

// TestTablePermanence is the defining property against the longitudinal
// attack: re-inserting the same (or a nearby) top location must NOT
// generate a new entry — the original candidates are authoritative.
func TestTablePermanence(t *testing.T) {
	tbl, err := NewObfuscationTable(50)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	orig := []geo.Point{{X: 1, Y: 1}}
	entry1, created := tbl.Insert(geo.Point{X: 0, Y: 0}, orig, now)
	if !created {
		t.Fatal("first insert should create")
	}
	// A slightly drifted recomputed top (next window's centroid).
	entry2, created := tbl.Insert(geo.Point{X: 10, Y: -5}, []geo.Point{{X: 999, Y: 999}}, now.Add(time.Hour))
	if created {
		t.Fatal("nearby top must reuse the permanent entry")
	}
	if entry2.Top != entry1.Top || entry2.Candidates[0] != orig[0] {
		t.Errorf("permanent entry mutated: %+v", entry2)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

// TestTablePermanenceFarOut: once a table is large enough to index its
// tops, a top far beyond the grid's old 32-bit cell range must still be
// found, so re-inserting it returns the existing entry instead of
// drawing a second candidate set.
func TestTablePermanenceFarOut(t *testing.T) {
	tbl, err := NewObfuscationTable(50)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 39; i++ {
		tbl.Insert(geo.Point{X: float64(i) * 1000, Y: 0}, []geo.Point{{X: 1, Y: 1}}, now)
	}
	for _, top := range []geo.Point{{X: 2e11, Y: 7}, {X: -2e11, Y: 7}, {X: 1e300, Y: 0}} {
		orig := []geo.Point{{X: 3, Y: 3}}
		if _, created := tbl.Insert(top, orig, now); !created {
			t.Fatalf("first insert of %v should create", top)
		}
		entry, created := tbl.Insert(top, []geo.Point{{X: 999, Y: 999}}, now.Add(time.Hour))
		if created || entry.Candidates[0] != orig[0] {
			t.Errorf("second insert of %v: created=%v entry=%+v; want the existing entry", top, created, entry)
		}
		if got, ok := tbl.Lookup(top); !ok || got.Top != top {
			t.Errorf("Lookup(%v) = %+v, %v", top, got, ok)
		}
	}
	if tbl.Len() != 42 {
		t.Errorf("Len = %d, want 42", tbl.Len())
	}
}

func TestTableInsertCopiesCandidates(t *testing.T) {
	tbl, err := NewObfuscationTable(50)
	if err != nil {
		t.Fatal(err)
	}
	cands := []geo.Point{{X: 1, Y: 1}}
	tbl.Insert(geo.Point{}, cands, time.Now())
	cands[0] = geo.Point{X: 777, Y: 777}
	got, ok := tbl.Lookup(geo.Point{})
	if !ok || got.Candidates[0] != (geo.Point{X: 1, Y: 1}) {
		t.Error("table aliases caller's candidate slice")
	}
}

func TestTableLookupNearest(t *testing.T) {
	tbl, err := NewObfuscationTable(100)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	a := geo.Point{X: 0, Y: 0}
	b := geo.Point{X: 150, Y: 0}
	tbl.Insert(a, []geo.Point{{X: 1, Y: 0}}, now)
	tbl.Insert(b, []geo.Point{{X: 2, Y: 0}}, now)
	got, ok := tbl.Lookup(geo.Point{X: 100, Y: 0})
	if !ok || got.Top != b {
		t.Errorf("Lookup should pick the nearest entry, got %+v", got.Top)
	}
}

func TestTableEntriesCopy(t *testing.T) {
	tbl, err := NewObfuscationTable(50)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert(geo.Point{}, []geo.Point{{X: 5, Y: 5}}, time.Now())
	entries := tbl.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	entries[0].Top = geo.Point{X: 888, Y: 888}
	if got, _ := tbl.Lookup(geo.Point{}); got.Top != (geo.Point{}) {
		t.Error("Entries leaked internal state")
	}
}

func TestTableConcurrentInsertSameTop(t *testing.T) {
	tbl, err := NewObfuscationTable(50)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	var wg sync.WaitGroup
	createdCount := make(chan bool, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, created := tbl.Insert(geo.Point{X: float64(i % 3), Y: 0}, []geo.Point{{X: float64(i), Y: 0}}, now)
			createdCount <- created
		}(i)
	}
	wg.Wait()
	close(createdCount)
	creations := 0
	for c := range createdCount {
		if c {
			creations++
		}
	}
	if creations != 1 {
		t.Errorf("%d creations for one location, want 1", creations)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

// TestTableStateKeepsFingerprint: State keeps the fingerprint it folds
// and every append extends it, so after inserts, an import, a restore
// and a fault-in the user's TableState must equal the fingerprint of
// its entries folded from scratch. A restored or faulted-in table must
// come back without a kept fingerprint: loading hashes nothing.
func TestTableStateKeepsFingerprint(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			newEngine := func() *Engine {
				cfg := tieredConfig(t, noCap)
				cfg.Shards = shards
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = e.Close() })
				return e
			}
			// resident returns u's resident table, or nil when u is spilled.
			resident := func(e *Engine, u string) *ObfuscationTable {
				s, _ := e.shardFor(u)
				s.mu.RLock()
				defer s.mu.RUnlock()
				if us := s.users[u]; us != nil {
					return us.table
				}
				return nil
			}
			check := func(e *Engine, u, step string) {
				t.Helper()
				entries, err := e.Table(u)
				if err != nil {
					t.Fatal(err)
				}
				for range 2 {
					n, fp, err := e.TableState(u)
					if err != nil {
						t.Fatal(err)
					}
					if want := FingerprintTable(entries); n != len(entries) || fp != want {
						t.Fatalf("%s: TableState (%d, %016x), entries (%d, %016x)", step, n, fp, len(entries), want)
					}
				}
				if tbl := resident(e, u); tbl != nil && !tbl.fpKept.Load() {
					t.Fatalf("%s: State kept no fingerprint", step)
				}
			}
			unkept := func(e *Engine, u, step string) {
				t.Helper()
				if tbl := resident(e, u); tbl == nil || tbl.fpKept.Load() {
					t.Fatalf("%s: want a resident table without a kept fingerprint", step)
				}
			}
			tops := func(xs ...float64) profile.Profile {
				var p profile.Profile
				for i, x := range xs {
					p = append(p, profile.LocationFreq{Loc: geo.Point{X: x, Y: 100}, Freq: 50 - i})
				}
				return p
			}
			now := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

			e := newEngine()
			const u = "u"
			if err := e.InstallTops(u, tops(0, 1_000), now); err != nil {
				t.Fatal(err)
			}
			check(e, u, "first install")
			if err := e.InstallTops(u, tops(0, 1_000, 2_000, 3_000), now.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			check(e, u, "install onto a kept fingerprint")

			other := newEngine()
			if err := other.InstallTops(u, tops(4_000, 5_000), now); err != nil {
				t.Fatal(err)
			}
			theirs, err := other.Table(u)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ImportTable(u, PackTable(theirs).AppendSuffix(nil, 0)); err != nil {
				t.Fatal(err)
			}
			check(e, u, "import")

			evictAll(t, e)
			if resident(e, u) != nil {
				t.Fatal("evictAll left the user resident")
			}
			check(e, u, "spilled")
			if err := e.Report(u, geo.Point{X: 0, Y: 100}, now.Add(2*time.Hour)); err != nil {
				t.Fatal(err)
			}
			unkept(e, u, "fault-in")
			check(e, u, "after fault-in")
			if err := e.InstallTops(u, tops(0, 6_000), now.Add(3*time.Hour)); err != nil {
				t.Fatal(err)
			}
			check(e, u, "install after fault-in")

			var snap bytes.Buffer
			if err := e.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			restored := newEngine()
			if err := restored.Restore(&snap); err != nil {
				t.Fatal(err)
			}
			unkept(restored, u, "restore")
			check(restored, u, "after restore")
			if err := restored.InstallTops(u, tops(7_000), now.Add(4*time.Hour)); err != nil {
				t.Fatal(err)
			}
			check(restored, u, "install after restore")
		})
	}
}
