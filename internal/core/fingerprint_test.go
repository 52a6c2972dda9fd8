package core

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/randx"
)

func TestTableFingerprint(t *testing.T) {
	a, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	// Unknown users hash to the empty-table fingerprint on every engine:
	// a replica that never saw the user agrees with an empty obfuscator.
	fa, err := a.TableFingerprint("ghost")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.TableFingerprint("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("empty fingerprints differ: %x vs %x", fa, fb)
	}

	tops := profile.Profile{
		{Loc: geo.Point{X: 100, Y: 100}, Freq: 50},
		{Loc: geo.Point{X: 9000, Y: 0}, Freq: 20},
	}
	now := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := a.InstallTops("u", tops, now); err != nil {
		t.Fatal(err)
	}
	full, err := a.TableFingerprint("u")
	if err != nil {
		t.Fatal(err)
	}
	if full == fa {
		t.Fatal("populated table hashed like an empty one")
	}

	// Replicating a's table into b converges the fingerprints; the import
	// is idempotent so replaying it changes nothing.
	entries, err := a.Table("u")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.ImportTable("u", PackTable(entries).AppendSuffix(nil, 0)); err != nil {
			t.Fatal(err)
		}
		got, err := b.TableFingerprint("u")
		if err != nil {
			t.Fatal(err)
		}
		if got != full {
			t.Fatalf("replay %d: replica fingerprint %x != obfuscator %x", i, got, full)
		}
	}

	// The fingerprint is order- and content-sensitive: an engine that
	// obfuscates the same tops itself (different candidates) must differ.
	ccfg := testConfig(t)
	ccfg.Seed = 999
	c, err := NewEngine(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallTops("u", tops, now); err != nil {
		t.Fatal(err)
	}
	indep, err := c.TableFingerprint("u")
	if err != nil {
		t.Fatal(err)
	}
	if indep == full {
		t.Fatal("independently obfuscated table collided with the replica")
	}
}

func TestFingerprintChain(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	tops := profile.Profile{
		{Loc: geo.Point{X: 100, Y: 100}, Freq: 50},
		{Loc: geo.Point{X: 9000, Y: 0}, Freq: 20},
		{Loc: geo.Point{X: 3000, Y: 7000}, Freq: 11},
	}
	now := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := e.InstallTops("u", tops, now); err != nil {
		t.Fatal(err)
	}
	entries, err := e.Table("u")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("want >= 3 entries, got %d", len(entries))
	}

	// The exported chain agrees with the engine's own digest.
	engineFP, err := e.TableFingerprint("u")
	if err != nil {
		t.Fatal(err)
	}
	if got := FingerprintTable(entries); got != engineFP {
		t.Fatalf("FingerprintTable = %x, engine digest %x", got, engineFP)
	}
	if got := FingerprintTable(nil); got != FingerprintSeed {
		t.Fatalf("empty fingerprint = %x, want seed %x", got, FingerprintSeed)
	}

	// Prefix property: extending the fingerprint of any prefix with the
	// remaining suffix reproduces the full digest — the invariant that
	// lets delta replication verify a replica's table by content before
	// shipping only the suffix.
	for k := 0; k <= len(entries); k++ {
		prefix := FingerprintTable(entries[:k])
		if got := ExtendFingerprint(prefix, entries[k:]); got != engineFP {
			t.Errorf("split at %d: extend(%x, suffix) = %x, want %x", k, prefix, got, engineFP)
		}
		if k < len(entries) && prefix == engineFP {
			t.Errorf("split at %d: prefix digest collided with the full table", k)
		}
	}

	// TableLen matches without copying; unknown users have length 0.
	if n, err := e.TableLen("u"); err != nil || n != len(entries) {
		t.Fatalf("TableLen = %d, %v; want %d", n, err, len(entries))
	}
	if n, err := e.TableLen("ghost"); err != nil || n != 0 {
		t.Fatalf("TableLen(ghost) = %d, %v; want 0, nil", n, err)
	}
}

func TestSyncTopsPreservesWindow(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	home := geo.Point{X: 10, Y: 10}
	rnd := randx.New(4, 1)
	at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 25; i++ {
		at = at.Add(time.Hour)
		if err := e.Report("u", home.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}

	tops := profile.Profile{{Loc: geo.Point{X: 5000, Y: 5000}, Freq: 9}}

	// SyncTops (journal catch-up path) updates tops and table but keeps
	// the pending check-ins: they were never part of a merge round and
	// must survive to contribute to the next one.
	if err := e.SyncTops("u", tops, at); err != nil {
		t.Fatal(err)
	}
	pending, err := e.PendingProfile("u")
	if err != nil {
		t.Fatal(err)
	}
	if pending.Total() != 25 {
		t.Errorf("SyncTops consumed pending check-ins: total = %d, want 25", pending.Total())
	}
	got, err := e.TopLocations("u")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Loc != tops[0].Loc {
		t.Errorf("tops after SyncTops = %+v", got)
	}

	// InstallTops (live merge path) consumes the window.
	if err := e.InstallTops("u", tops, at); err != nil {
		t.Fatal(err)
	}
	empty, err := e.PendingProfile("u")
	if err != nil {
		t.Fatal(err)
	}
	if empty != nil {
		t.Errorf("InstallTops left pending check-ins: %+v", empty)
	}

	// Both paths obfuscate a given top once: the table is identical.
	f1, err := e.TableFingerprint("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SyncTops("u", tops, at.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	f2, err := e.TableFingerprint("u")
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Errorf("replaying SyncTops changed the table: %x -> %x", f1, f2)
	}
}
