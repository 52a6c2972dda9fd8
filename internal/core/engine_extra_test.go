package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/binfmt"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/profile"
	"repro/internal/randx"
)

// uniformDiskMechanism is a Mechanism without a Sigma method, used to
// exercise the posterior-sigma fallback paths.
type uniformDiskMechanism struct {
	radius float64
	n      int
}

var _ geoind.Mechanism = (*uniformDiskMechanism)(nil)

func (m *uniformDiskMechanism) Name() string { return "uniform-disk" }
func (m *uniformDiskMechanism) Fold() int    { return m.n }

func (m *uniformDiskMechanism) Obfuscate(rnd *randx.Rand, p geo.Point) ([]geo.Point, error) {
	out := make([]geo.Point, m.n)
	for i := range out {
		out[i] = p.Add(rnd.UniformDisk(m.radius))
	}
	return out, nil
}

func (m *uniformDiskMechanism) ConfidenceRadius(alpha float64) (float64, error) {
	if alpha <= 0 || alpha >= 1 {
		return 0, errors.New("uniform-disk: bad alpha")
	}
	return m.radius, nil
}

func TestPendingProfileDirect(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PendingProfile("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user: %v", err)
	}
	home := geo.Point{X: 10, Y: 10}
	rnd := randx.New(4, 1)
	at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		at = at.Add(time.Hour)
		if err := e.Report("pender", home.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}
	prof, err := e.PendingProfile("pender")
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) == 0 || prof[0].Freq != 40 {
		t.Fatalf("pending profile = %+v", prof)
	}
	// PendingProfile must NOT reset the window: a second call sees the
	// same data.
	again, err := e.PendingProfile("pender")
	if err != nil {
		t.Fatal(err)
	}
	if again.Total() != prof.Total() {
		t.Errorf("pending profile consumed the window: %d vs %d", again.Total(), prof.Total())
	}
	// After a rebuild the pending set is empty.
	if err := e.RebuildProfile("pender", at); err != nil {
		t.Fatal(err)
	}
	empty, err := e.PendingProfile("pender")
	if err != nil {
		t.Fatal(err)
	}
	if empty != nil {
		t.Errorf("pending after rebuild = %+v", empty)
	}
}

func TestInstallTopsDirect(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	tops := profile.Profile{
		{Loc: geo.Point{X: 100, Y: 100}, Freq: 50},
		{Loc: geo.Point{X: 9000, Y: 0}, Freq: 20},
	}
	now := time.Now()
	if err := e.InstallTops("installed", tops, now); err != nil {
		t.Fatal(err)
	}
	got, err := e.TopLocations("installed")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Freq != 50 {
		t.Fatalf("installed tops = %+v", got)
	}
	entries, err := e.Table("installed")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("table rows = %d", len(entries))
	}
	// Re-installing the same tops must not re-obfuscate.
	if err := e.InstallTops("installed", tops, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	after, err := e.Table("installed")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 || after[0].Candidates[0] != entries[0].Candidates[0] {
		t.Error("re-install regenerated candidates")
	}
}

func TestImportTableDirect(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	entries := []TableEntry{
		{Top: geo.Point{X: 1, Y: 1}, Candidates: []geo.Point{{X: 500, Y: 500}}, CreatedAt: time.Now()},
	}
	if err := e.ImportTable("imported", PackTable(entries).AppendSuffix(nil, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := e.Table("imported")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Candidates[0] != (geo.Point{X: 500, Y: 500}) {
		t.Fatalf("imported table = %+v", got)
	}
	// Requests near the imported top come from the imported candidates.
	out, fromTable, err := e.Request("imported", geo.Point{X: 1, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !fromTable || out != (geo.Point{X: 500, Y: 500}) {
		t.Errorf("request = %v, fromTable=%v", out, fromTable)
	}
	// Importing an overlapping entry keeps the original (first wins).
	dup := []TableEntry{
		{Top: geo.Point{X: 2, Y: 2}, Candidates: []geo.Point{{X: 999, Y: 999}}, CreatedAt: time.Now()},
	}
	if err := e.ImportTable("imported", PackTable(dup).AppendSuffix(nil, 0)); err != nil {
		t.Fatal(err)
	}
	got, err = e.Table("imported")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("overlapping import created a second entry: %+v", got)
	}
}

// TestImportTableRejectsWrappedCandidateCount feeds a suffix whose
// candidate counts sum past 2^64 back to the arena it carries: entry 0
// claims 3 candidates, entry 1 claims 2^64-1, and the arena holds the
// wrapped total of 2 points. The import must fail whole, as a corrupt
// record, not index entry 0's candidates past the arena.
func TestImportTableRejectsWrappedCandidateCount(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	suffix := binfmt.AppendUvarint(nil, 2)
	for i, cn := range []uint64{3, math.MaxUint64} {
		suffix = binfmt.AppendPoint(suffix, geo.Point{X: float64(i) * 5000})
		suffix = binfmt.AppendUint64(suffix, 0)
		suffix = binfmt.AppendUvarint(suffix, cn)
	}
	suffix = binfmt.AppendPoint(suffix, geo.Point{X: 1, Y: 1})
	suffix = binfmt.AppendPoint(suffix, geo.Point{X: 2, Y: 2})
	if err := e.ImportTable("u", suffix); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("ImportTable = %v, want ErrCorruptRecord", err)
	}
	if err := e.ApplyRecord(encodeImport(nil, "u", suffix)); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("ApplyRecord = %v, want ErrCorruptRecord", err)
	}
	if n, _, err := e.TableState("u"); err != nil || n != 0 {
		t.Fatalf("TableState after the rejected imports = %d, %v; want an empty table", n, err)
	}
}

// TestPosteriorSigmaFallbacks covers the fallback of the resolution
// order: a mechanism without Sigma gets the empirical candidate spread.
func TestPosteriorSigmaFallbacks(t *testing.T) {
	// Mechanism without Sigma: empirical spread of the candidates.
	cfg2 := testConfig(t)
	cfg2.Mechanism = &uniformDiskMechanism{radius: 1000, n: 4}
	e2, err := NewEngine(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	cands := []geo.Point{{X: -100, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: -100}, {X: 0, Y: 100}}
	got := e2.posteriorSigma(cands)
	if got <= 0 || got > 200 {
		t.Errorf("empirical sigma = %g", got)
	}
	// Degenerate candidate sets fall back to a positive default.
	if got := e2.posteriorSigma(nil); got <= 0 {
		t.Errorf("nil candidates sigma = %g", got)
	}
	if got := e2.posteriorSigma([]geo.Point{{X: 5, Y: 5}}); got <= 0 {
		t.Errorf("singleton sigma = %g", got)
	}
	if got := e2.posteriorSigma([]geo.Point{{X: 5, Y: 5}, {X: 5, Y: 5}}); got <= 0 {
		t.Errorf("identical candidates sigma = %g", got)
	}

	// End to end with the Sigma-less mechanism: requests still work.
	rnd := randx.New(1, 2)
	at := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		at = at.Add(time.Hour)
		if err := e2.Report("disky", geo.Point{X: 0, Y: 0}.Add(rnd.GaussianPolar(10)), at); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.RebuildProfile("disky", at); err != nil {
		t.Fatal(err)
	}
	if _, fromTable, err := e2.Request("disky", geo.Point{X: 0, Y: 0}); err != nil || !fromTable {
		t.Errorf("request with sigma-less mechanism: fromTable=%v err=%v", fromTable, err)
	}
}
