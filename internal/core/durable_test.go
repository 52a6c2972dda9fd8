package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/randx"
	"repro/internal/wal"
)

func snapshotBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

func fingerprints(t *testing.T, e *Engine) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, id := range e.Users() {
		fp, err := e.TableFingerprint(id)
		if err != nil {
			t.Fatalf("TableFingerprint(%s): %v", id, err)
		}
		out[id] = fp
	}
	return out
}

// driveWorkload applies a deterministic mix of every logged operation:
// single reports or batches (per the batch knob), forced and batch
// rebuilds, tops sync/install, table import, and ad requests (which
// draw from the per-user PRNG).
func driveWorkload(t *testing.T, e *Engine, batch int) {
	t.Helper()
	users := []string{"alice", "bob", "carol"}
	rnd := randx.New(7, 3)
	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	step := 0
	at := func() time.Time { return base.Add(time.Duration(step) * time.Minute) }
	pos := func(cx, cy float64) geo.Point {
		return geo.Point{X: cx + rnd.NormFloat64()*30, Y: cy + rnd.NormFloat64()*30}
	}
	for round := 0; round < 6; round++ {
		for ui, user := range users {
			cx := float64(1000 * (ui + 1))
			if batch == 1 {
				for k := 0; k < 8; k++ {
					if err := e.Report(user, pos(cx, cx), at()); err != nil {
						t.Fatalf("Report: %v", err)
					}
					step++
				}
			} else {
				items := make([]BatchReport, 0, batch)
				for k := 0; k < batch; k++ {
					items = append(items, BatchReport{UserID: user, Pos: pos(cx, cx), At: at()})
					step++
				}
				if errs := e.ReportBatch(items); len(errs) > 0 {
					t.Fatalf("ReportBatch: %v", errs[0].Err)
				}
			}
		}
		if batch > 1 {
			// Mixed-user batch: exercises the grouped (per-run logging)
			// path.
			var items []BatchReport
			for _, user := range users {
				items = append(items, BatchReport{UserID: user, Pos: pos(500, 500), At: at()})
				step++
			}
			if errs := e.ReportBatch(items); len(errs) > 0 {
				t.Fatalf("mixed ReportBatch: %v", errs[0].Err)
			}
		}
		switch round % 3 {
		case 0:
			if err := e.RebuildProfile(users[0], at()); err != nil {
				t.Fatalf("RebuildProfile: %v", err)
			}
		case 1:
			if err := e.RebuildAll(at(), 2); err != nil {
				t.Fatalf("RebuildAll: %v", err)
			}
		case 2:
			tops := profile.Profile{{Loc: geo.Point{X: 4000 + float64(round)*250, Y: 4000}, Freq: 3}}
			if err := e.SyncTops(users[1], tops, at()); err != nil {
				t.Fatalf("SyncTops: %v", err)
			}
			if err := e.InstallTops(users[2], tops, at()); err != nil {
				t.Fatalf("InstallTops: %v", err)
			}
			entries := []TableEntry{{
				Top:        geo.Point{X: 6000 + float64(round), Y: 6000},
				Candidates: []geo.Point{{X: 6100, Y: 6050}, {X: 5950, Y: 6010}},
				CreatedAt:  at(),
			}}
			if err := e.ImportTable(users[0], PackTable(entries).AppendSuffix(nil, 0)); err != nil {
				t.Fatalf("ImportTable: %v", err)
			}
		}
		step++
		for ui, user := range users {
			cx := float64(1000 * (ui + 1))
			if _, _, err := e.Request(user, pos(cx, cx)); err != nil {
				t.Fatalf("Request: %v", err)
			}
		}
	}
}

// TestRecoverByteIdentical is the acceptance matrix: for shards {1,8} ×
// batch {1,64}, abandon the store mid-flight (the WAL equivalent of
// kill -9) and require the recovered engine to be byte-identical —
// same Snapshot stream, same table fingerprints, same user set.
func TestRecoverByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 8} {
		for _, batch := range []int{1, 64} {
			t.Run(fmt.Sprintf("shards=%d_batch=%d", shards, batch), func(t *testing.T) {
				dir := t.TempDir()
				cfg := testConfig(t)
				cfg.Shards = shards
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
				if err != nil {
					t.Fatal(err)
				}
				if stats, err := e.Recover(st); err != nil || stats.Replayed != 0 {
					t.Fatalf("cold recover: stats=%+v err=%v", stats, err)
				}
				driveWorkload(t, e, batch)
				want := snapshotBytes(t, e)
				wantFPs := fingerprints(t, e)

				// Crash: reopen the directory without closing st.
				st2, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
				if err != nil {
					t.Fatal(err)
				}
				defer st2.Close()
				e2, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := e2.Recover(st2)
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				if stats.Replayed == 0 || stats.OpErrors != 0 {
					t.Fatalf("stats = %+v, want replayed records and no op errors", stats)
				}
				if got := snapshotBytes(t, e2); !bytes.Equal(got, want) {
					t.Errorf("recovered snapshot differs (%d vs %d bytes)", len(got), len(want))
				}
				gotFPs := fingerprints(t, e2)
				for id, fp := range wantFPs {
					if gotFPs[id] != fp {
						t.Errorf("user %s: fingerprint %016x, want %016x", id, gotFPs[id], fp)
					}
				}
			})
		}
	}
}

// TestRecoverFromCheckpointPlusTail: state checkpointed mid-workload
// must come back from Restore + tail replay, not a full-log replay.
func TestRecoverFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.Shards = 4
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(st); err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, e, 8)
	lsn, data, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := st.WriteCheckpoint(lsn, data); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	// More traffic after the checkpoint: the tail.
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		if err := e.Report("alice", geo.Point{X: 1000 + float64(i), Y: 1000}, base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RebuildProfile("alice", base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, e)

	st2, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e2.Recover(st2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointLSN != lsn {
		t.Errorf("CheckpointLSN = %d, want %d", stats.CheckpointLSN, lsn)
	}
	if stats.Replayed != 11 { // 10 reports + 1 rebuild after the checkpoint
		t.Errorf("Replayed = %d, want 11", stats.Replayed)
	}
	if got := snapshotBytes(t, e2); !bytes.Equal(got, want) {
		t.Error("checkpoint+tail recovery diverged from pre-crash state")
	}
}

// TestRecoverTornTailSweep is the crash-injection sweep at the engine
// level: the log is cut at every byte offset inside its final record,
// and recovery must land exactly on the state before that record —
// never a corrupted in-between, never an error.
func TestRecoverTornTailSweep(t *testing.T) {
	build := t.TempDir()
	cfg := testConfig(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(build, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(st); err != nil {
		t.Fatal(err)
	}

	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	// Each op emits exactly one record; sizes[i] is the segment length
	// after record i, so sizes[i-1]..sizes[i] spans record i's bytes.
	seg := filepath.Join(build, "wal-00000000000000000000.seg")
	ops := []func() error{
		func() error { return e.Report("alice", geo.Point{X: 1000, Y: 1000}, base) },
		func() error { return e.Report("alice", geo.Point{X: 1010, Y: 990}, base.Add(time.Minute)) },
		func() error { return e.Report("alice", geo.Point{X: 995, Y: 1005}, base.Add(2*time.Minute)) },
		func() error { return e.RebuildProfile("alice", base.Add(time.Hour)) },
		func() error { _, _, err := e.Request("alice", geo.Point{X: 1000, Y: 1000}); return err },
	}
	snaps := [][]byte{snapshotBytes(t, e)}
	sizes := []int64{0}
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		snaps = append(snaps, snapshotBytes(t, e))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != sizes[len(ops)] {
		t.Fatalf("segment size %d, want %d", len(full), sizes[len(ops)])
	}

	last := len(ops)
	for cut := sizes[last-1]; cut <= sizes[last]; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000000.seg"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cst, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		ce, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := ce.Recover(cst)
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		wantIdx := last - 1
		if cut == sizes[last] {
			wantIdx = last
		}
		if stats.Replayed != wantIdx {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, stats.Replayed, wantIdx)
		}
		if got := snapshotBytes(t, ce); !bytes.Equal(got, snaps[wantIdx]) {
			t.Fatalf("cut %d: recovered state != state after %d ops", cut, wantIdx)
		}
		cst.Close()
	}
}

// TestConcurrentAppendCheckpoint races writers against checkpoints
// (run under -race) and then proves the surviving log + checkpoint
// still recover to the quiesced state.
func TestConcurrentAppendCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.Shards = 8
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(st); err != nil {
		t.Fatal(err)
	}

	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	const writers, opsEach = 4, 60
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", w)
			cx := float64(1000 * (w + 1))
			for i := 0; i < opsEach; i++ {
				if err := e.Report(user, geo.Point{X: cx + float64(i%17), Y: cx}, base.Add(time.Duration(i)*time.Minute)); err != nil {
					errc <- err
					return
				}
				if i%10 == 9 {
					if _, _, err := e.Request(user, geo.Point{X: cx, Y: cx}); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			lsn, data, err := e.Checkpoint()
			if err != nil {
				errc <- err
				return
			}
			if err := st.WriteCheckpoint(lsn, data); err != nil {
				errc <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := snapshotBytes(t, e)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Recover(st2); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, e2); !bytes.Equal(got, want) {
		t.Error("recovery after racing checkpoints diverged from quiesced state")
	}
}

// TestZeroTimeRoundTrip: Report treats a zero windowStart as unset, so
// a zero report time must replay as exactly zero, not as an
// equal-instant non-zero Time.
func TestZeroTimeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(st); err != nil {
		t.Fatal(err)
	}
	if err := e.Report("zero", geo.Point{X: 1, Y: 2}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Report("zero", geo.Point{X: 3, Y: 4}, time.Time{}.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, e)
	st2, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Recover(st2); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, e2); !bytes.Equal(got, want) {
		t.Error("zero-time reports replayed differently")
	}
}

func TestApplyRecordCorruption(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"unknown tag": {99, 0},
		"short":       {recReport, 5, 'a'},
		"trailing":    append(encodeRequest(nil, "u", geo.Point{X: 1, Y: 2}), 0xFF),
	}
	for name, rec := range cases {
		if err := e.ApplyRecord(rec); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s: ApplyRecord = %v, want ErrCorruptRecord", name, err)
		}
	}
}

// failingDur simulates a dead log device.
type failingDur struct{}

func (failingDur) Append([]byte) (uint64, error) { return 0, errors.New("disk on fire") }
func (failingDur) NextLSN() uint64               { return 0 }

// nopDur is a durability sink that accepts every record.
type nopDur struct{}

func (nopDur) Append([]byte) (uint64, error) { return 0, nil }
func (nopDur) NextLSN() uint64               { return 0 }

// TestAppendFailureSurfaces: every logged operation reports a failed
// append as its error, every item of a batch included, with its state
// change applied all the same: crash-equivalent, the engine equals one
// that ran the operation with no sink, and a request still returns the
// output it drew. Once the sink is detached, the same operation
// succeeds.
func TestAppendFailureSurfaces(t *testing.T) {
	start := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	now := start.Add(3 * time.Hour)
	homes := map[string]geo.Point{"alice": {X: 1000, Y: 1000}, "bob": {X: 3000, Y: 1000}}
	// Both users hold a table entry for their home and check-ins still
	// pending, so a rebuild and a request each have work to do.
	setup := func(t *testing.T) *Engine {
		t.Helper()
		e, err := NewEngine(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for _, id := range []string{"alice", "bob"} {
				for k := 0; k < 10; k++ {
					if err := e.Report(id, homes[id], start.Add(time.Duration(2*round)*time.Hour+time.Duration(k)*time.Minute)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if round == 0 {
				if err := e.RebuildAll(start.Add(time.Hour), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e
	}
	batch := func(ids ...string) []BatchReport {
		var items []BatchReport
		for k := 0; k < 2; k++ {
			for _, id := range ids {
				items = append(items, BatchReport{UserID: id, Pos: homes[id], At: now})
			}
		}
		return items
	}
	// An operation returns what it returned, if anything, and its
	// errors: a batch's item by item.
	perItem := func(items []BatchReport, errs []BatchError) (any, []error) {
		out := make([]error, len(items))
		for _, be := range errs {
			out[be.Index] = be.Err
		}
		return nil, out
	}
	one := func(err error) (any, []error) { return nil, []error{err} }
	tops := profile.Profile{{Loc: geo.Point{X: 5000, Y: 5000}, Freq: 3}}
	suffix := PackTable([]TableEntry{{
		Top:        geo.Point{X: 6000, Y: 6000},
		Candidates: []geo.Point{{X: 6100, Y: 6050}, {X: 5950, Y: 6010}},
		CreatedAt:  now,
	}}).AppendSuffix(nil, 0)
	ops := []struct {
		name string
		run  func(*Engine) (any, []error)
	}{
		{"Report", func(e *Engine) (any, []error) { return one(e.Report("alice", homes["alice"], now)) }},
		{"ReportBatch/one user", func(e *Engine) (any, []error) {
			items := batch("alice")
			return perItem(items, e.ReportBatch(items))
		}},
		{"ReportBatch/mixed users", func(e *Engine) (any, []error) {
			items := batch("alice", "bob")
			return perItem(items, e.ReportBatch(items))
		}},
		{"RebuildProfile", func(e *Engine) (any, []error) { return one(e.RebuildProfile("alice", now)) }},
		{"RebuildAll", func(e *Engine) (any, []error) { return one(e.RebuildAll(now, 2)) }},
		{"Request", func(e *Engine) (any, []error) {
			out, fromTable, err := e.Request("alice", homes["alice"])
			return [2]any{out, fromTable}, []error{err}
		}},
		{"InstallTops", func(e *Engine) (any, []error) { return one(e.InstallTops("alice", tops, now)) }},
		{"SyncTops", func(e *Engine) (any, []error) { return one(e.SyncTops("alice", tops, now)) }},
		{"ImportTable", func(e *Engine) (any, []error) { return one(e.ImportTable("alice", suffix)) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			ref := setup(t)
			want, errs := op.run(ref)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("item %d with no sink: %v", i, err)
				}
			}
			e := setup(t)
			before := snapshotBytes(t, e)
			e.SetDurability(failingDur{})
			res, errs := op.run(e)
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "disk on fire") {
					t.Errorf("item %d with a failing log: %v, want the append error", i, err)
				}
			}
			if res != want {
				t.Errorf("returned %v with a failing log, want %v as with no sink", res, want)
			}
			got := snapshotBytes(t, e)
			if bytes.Equal(got, before) {
				t.Error("the state change was not applied")
			}
			if !bytes.Equal(got, snapshotBytes(t, ref)) {
				t.Error("state differs from the same operation with no sink")
			}
			e.SetDurability(nil)
			_, errs = op.run(e)
			for i, err := range errs {
				if err != nil {
					t.Errorf("item %d once the sink is detached: %v", i, err)
				}
			}
		})
	}
}

// TestWritePathAllocs pins what a Report and a Request allocate, with no
// sink and with one attached: nothing for a check-in, the nomadic
// mechanism's output for a nomadic request, and output selection's two
// scratch slices for a table hit. A closure that escaped through update
// would add one to each.
func TestWritePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	home := geo.Point{X: 1000, Y: 1000}
	away := geo.Point{X: 30_000, Y: 30_000}
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, sink := range []struct {
		name string
		dur  Durability
	}{{"no sink", nil}, {"no-op sink", nopDur{}}} {
		t.Run(sink.name, func(t *testing.T) {
			e, err := NewEngine(testConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 10; k++ {
				if err := e.Report("alice", home, start.Add(time.Duration(k)*time.Minute)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.RebuildProfile("alice", start.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			e.SetDurability(sink.dur)
			// A hundred check-ins regrow the window a few times, which
			// AllocsPerRun's per-run integer mean rounds away.
			for _, op := range []struct {
				name string
				want float64
				run  func() error
			}{
				{"Report", 0, func() error { return e.Report("alice", home, start.Add(2*time.Hour)) }},
				{"Request nomadic", 1, func() error { _, _, err := e.Request("alice", away); return err }},
				{"Request table hit", 2, func() error { _, _, err := e.Request("alice", home); return err }},
			} {
				if n := testing.AllocsPerRun(100, func() {
					if err := op.run(); err != nil {
						t.Fatal(err)
					}
				}); n != op.want {
					t.Errorf("%s: %v allocs, want %v", op.name, n, op.want)
				}
			}
		})
	}
}

func TestRecoverRejectsNonEmptyEngine(t *testing.T) {
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Report("alice", geo.Point{X: 1, Y: 1}, time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := e.Recover(st); err == nil {
		t.Error("Recover into a live engine accepted")
	}
}
