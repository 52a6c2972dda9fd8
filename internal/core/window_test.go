package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/binfmt"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/randx"
	"repro/internal/wal"
)

// oddCheckIns are check-ins whose bytes the window must keep exactly:
// the zero time, times int64 nanoseconds since 1970 cannot hold (before
// 1677 and after 2262), nanoseconds on both sides of the epoch, a
// non-UTC zone, a time.Now() reading with its monotonic clock, and −0,
// NaN (two payloads) and ±Inf coordinates. The first is the latest, so
// it opens the window and no later one closes it.
func oddCheckIns() []BatchReport {
	east := time.FixedZone("UTC+9:30", 9*3600+1800)
	return []BatchReport{
		{Pos: geo.Point{X: 1, Y: 2}, At: time.Date(2300, 1, 1, 0, 0, 0, 500_000_000, time.UTC)},
		{Pos: geo.Point{X: math.Copysign(0, -1), Y: 3}, At: time.Time{}},
		{Pos: geo.Point{X: math.NaN(), Y: 1}, At: time.Date(1600, 6, 1, 12, 0, 0, 7, east)},
		{Pos: geo.Point{X: math.Inf(1), Y: math.Inf(-1)}, At: time.Now()},
		{Pos: geo.Point{X: 1e300, Y: -1e-300}, At: time.Unix(-1, 999_999_999)},
		{Pos: geo.Point{X: math.Float64frombits(0x7ff8_0000_0000_0001), Y: 0}, At: time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC)},
		{Pos: geo.Point{X: 250, Y: -250}, At: time.Unix(1_700_000_000, 123_456_789).In(east)},
	}
}

// referenceWindow encodes check-ins as a user frame stores its window,
// independently of the engine: the count, then each point and time.
func referenceWindow(cis []BatchReport) []byte {
	b := binfmt.AppendUvarint(nil, uint64(len(cis)))
	for _, c := range cis {
		b = binfmt.AppendPoint(b, c.Pos)
		b = binfmt.AppendTime(b, c.At)
	}
	return b
}

// referenceFrame is the user frame of a user who has only reported
// cis, none closing the window: a fresh PRNG, no profile, the window
// opened at the first check-in's time, no tops and an empty table.
func referenceFrame(t *testing.T, seed uint64, id string, cis []BatchReport) []byte {
	t.Helper()
	st, err := randx.New(seed, hashUser(id)).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var start time.Time
	for _, c := range cis {
		if start.IsZero() {
			start = c.At
		}
	}
	b := []byte{userFrameVersion}
	b = binfmt.AppendString(b, st)
	b = binfmt.AppendBool(b, false)
	b = binfmt.AppendTime(b, start)
	b = append(b, referenceWindow(cis)...)
	b = binfmt.AppendUvarint(b, 0) // no tops
	return binfmt.AppendUvarint(b, 0)
}

// snapshotFrames splits the engine's snapshot into its users' frames.
func snapshotFrames(t *testing.T, e *Engine) map[string][]byte {
	t.Helper()
	_, rest, err := binfmt.SplitFrame(snapshotBytes(t, e))
	if err != nil {
		t.Fatal(err)
	}
	frames := make(map[string][]byte)
	for len(rest) > 0 {
		var payload []byte
		if payload, rest, err = binfmt.SplitFrame(rest); err != nil {
			t.Fatal(err)
		}
		r := binfmt.NewReader(payload)
		id := r.Str()
		frames[id] = r.Rest()
	}
	return frames
}

// TestWindowFrameBytes: check-ins reported one by one or in batches, at
// shards {1, 8} and resident caps {unbounded, 1}, reach the user frame
// exactly as an independent encoding of them, through eviction and
// fault-in as well. A resident window is exactly its records' bytes.
func TestWindowFrameBytes(t *testing.T) {
	cis := oddCheckIns()
	for _, shards := range []int{1, 8} {
		for _, cap := range []int{0, 1} {
			for _, batch := range []bool{false, true} {
				t.Run(fmt.Sprintf("shards=%d/cap=%d/batch=%v", shards, cap, batch), func(t *testing.T) {
					cfg := testConfig(t)
					if cap > 0 {
						cfg = tieredConfig(t, cap)
					}
					cfg.Shards = shards
					e, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					// Twelve users, each given a different number of the
					// check-ins, interleaved so that under a cap each
					// touch faults one user in and evicts another.
					want := make(map[string][]BatchReport)
					for round := 0; round < len(cis); round++ {
						for u := 0; u < 12; u++ {
							id := fmt.Sprintf("odd-%02d", u)
							if round > u%len(cis) {
								continue
							}
							c := cis[round]
							c.UserID = id
							if batch {
								errs := e.ReportBatch([]BatchReport{c, c})
								if len(errs) > 0 {
									t.Fatal(errs[0].Err)
								}
								want[id] = append(want[id], c, c)
							} else {
								if err := e.Report(id, c.Pos, c.At); err != nil {
									t.Fatal(err)
								}
								want[id] = append(want[id], c)
							}
						}
					}
					if ts := e.TierStats(); cap > 0 && (ts.Evictions == 0 || ts.FaultIns == 0) {
						t.Fatalf("cap %d moved nobody through the spill tier: %+v", cap, ts)
					}
					frames := snapshotFrames(t, e)
					if len(frames) != len(want) {
						t.Fatalf("snapshot holds %d users, want %d", len(frames), len(want))
					}
					for id, w := range want {
						if got, ref := frames[id], referenceFrame(t, cfg.Seed, id, w); !bytes.Equal(got, ref) {
							t.Errorf("%s: user frame\n%x\nwant\n%x", id, got, ref)
						}
					}
					if cap > 0 {
						return
					}
					for id, w := range want {
						u := residentUser(t, e, id)
						u.mu.Lock()
						window, n := u.window, u.nPending
						u.mu.Unlock()
						records := referenceWindow(w)[len(binfmt.AppendUvarint(nil, uint64(len(w)))):]
						if n != len(w) || !bytes.Equal(window, records) {
							t.Errorf("%s: window of %d check-ins in %d bytes, want %d in their records' %d bytes", id, n, len(window), len(w), len(records))
						}
					}
				})
			}
		}
	}
}

// rebuildCheckIns are check-ins that rebuild into three top locations,
// at times as odd as oddCheckIns', −0 among the coordinates; the first
// is the latest, so no report closes the window.
func rebuildCheckIns(userID string) []BatchReport {
	times := []time.Time{
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
		{},
		time.Date(1600, 6, 1, 12, 0, 0, 7, time.FixedZone("west", -5*3600)),
		time.Now(),
		time.Unix(-1, 999_999_999),
		time.Unix(1_700_000_000, 123_456_789),
	}
	items := footprintCheckIns(userID, time.Time{}, 60)
	for i := range items {
		items[i].At = times[i%len(times)]
		if i%7 == 0 {
			items[i].Pos.X = math.Copysign(0, -1)
		}
	}
	return items
}

// TestWindowRebuildAcrossSpillAndRecovery: a window that went through
// the spill tier, or through a checkpoint and WAL recovery, rebuilds
// into the table of an engine that never spilled or restarted.
func TestWindowRebuildAcrossSpillAndRecovery(t *testing.T) {
	now := time.Date(2300, 2, 1, 0, 0, 0, 0, time.UTC)
	users := []string{"alice", "bob", "carol"}
	feed := func(t *testing.T, e *Engine, items []BatchReport, batch bool) {
		t.Helper()
		if batch {
			if errs := e.ReportBatch(items); len(errs) > 0 {
				t.Fatal(errs[0].Err)
			}
			return
		}
		for _, it := range items {
			if err := e.Report(it.UserID, it.Pos, it.At); err != nil {
				t.Fatal(err)
			}
		}
	}
	rebuilt := func(t *testing.T, e *Engine) map[string]uint64 {
		t.Helper()
		for _, id := range users {
			if err := e.RebuildProfile(id, now); err != nil {
				t.Fatal(err)
			}
		}
		fps := fingerprints(t, e)
		for _, id := range users {
			if n, _ := e.TableLen(id); n == 0 {
				t.Fatalf("%s: the rebuild recorded no entry", id)
			}
		}
		return fps
	}
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			ref, err := NewEngine(testConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range users {
				feed(t, ref, rebuildCheckIns(id), batch)
			}
			want := rebuilt(t, ref)

			spilled, err := NewEngine(tieredConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer spilled.Close()
			for _, id := range users {
				feed(t, spilled, rebuildCheckIns(id), batch)
			}
			evictAll(t, spilled)
			if ts := spilled.TierStats(); ts.Resident != 0 {
				t.Fatalf("users still resident: %+v", ts)
			}
			if got := rebuilt(t, spilled); !maps.Equal(got, want) {
				t.Errorf("after evict and fault-in: fingerprints %v, want %v", got, want)
			}

			dir := t.TempDir()
			e, err := NewEngine(testConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := e.Recover(st); err != nil {
				t.Fatal(err)
			}
			// Two thirds of each window before the checkpoint, the rest
			// in the WAL tail.
			for _, id := range users {
				items := rebuildCheckIns(id)
				feed(t, e, items[:40], batch)
			}
			lsn, data, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WriteCheckpoint(lsn, data); err != nil {
				t.Fatal(err)
			}
			for _, id := range users {
				feed(t, e, rebuildCheckIns(id)[40:], batch)
			}
			st2, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			recovered, err := NewEngine(testConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := recovered.Recover(st2); err != nil {
				t.Fatal(err)
			}
			if got := rebuilt(t, recovered); !maps.Equal(got, want) {
				t.Errorf("after checkpoint and recovery: fingerprints %v, want %v", got, want)
			}
		})
	}
}

// TestReportBatchGrowsWindowOnce: a 64-check-in ReportBatch that closes
// no window grows the window at most once, whatever it held before: one
// allocation, for a window one record long as for a long one. Growing
// record by record allocates about six times from one record.
func TestReportBatchGrowsWindowOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	const users = 41
	batches := make([][]BatchReport, users)
	for u := range batches {
		id := fmt.Sprintf("grow-%02d", u)
		if err := e.Report(id, geo.Point{}, start); err != nil {
			t.Fatal(err)
		}
		batches[u] = footprintCheckIns(id, start, 64)
		for i := range batches[u] {
			batches[u][i].At = start.Add(time.Duration(i+1) * time.Second)
		}
	}
	// Each round reports one batch per user: AllocsPerRun makes one
	// uncounted call, then users-1 counted ones. The first round finds
	// every window one record long, later rounds find them longer.
	// Other goroutines' allocations count too, so the bound on the mean
	// leaves room for a stray one.
	for round := 0; round < 4; round++ {
		next := 0
		if n := testing.AllocsPerRun(users-1, func() {
			if errs := e.ReportBatch(batches[next]); len(errs) > 0 {
				t.Fatal(errs[0].Err)
			}
			next++
		}); n >= 1.5 {
			t.Errorf("round %d: a 64-check-in batch allocated %v times on average, want at most one growth", round, n)
		}
	}
	if n, _ := windowLenCap(t, e, "grow-00"); n != checkInLen(start)*(1+4*64) {
		t.Fatalf("window of %d bytes, want %d", n, checkInLen(start)*(1+4*64))
	}
}

// TestEvictFaultInCycleAllocs: an evict and fault-in cycle allocates
// what encoding and decoding the user's frame allocate, and no frame
// buffer: the spill file builds frames in a buffer it keeps, and a
// fault-in reads into one its shard keeps.
func TestEvictFaultInCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	e, err := NewEngine(tieredConfig(t, noCap))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const id = "cycler"
	items := footprintCheckIns(id, time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC), 200)
	if errs := e.ReportBatch(items[:150]); len(errs) > 0 {
		t.Fatal(errs[0].Err)
	}
	if err := e.RebuildProfile(id, items[149].At); err != nil {
		t.Fatal(err)
	}
	if errs := e.ReportBatch(items[150:]); len(errs) > 0 {
		t.Fatal(errs[0].Err)
	}
	s, _ := e.shardFor(id)
	u := residentUser(t, e, id)
	u.mu.Lock()
	frame, err := encodeUserFrame(nil, u)
	u.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(frame))
	encode := testing.AllocsPerRun(50, func() {
		u.mu.Lock()
		defer u.mu.Unlock()
		if _, err := encodeUserFrame(buf, u); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(50, func() {
		if _, err := e.decodeUserFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	cycle := testing.AllocsPerRun(50, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		u := s.users[id]
		u.mu.Lock()
		err := e.evictLocked(s, id, u)
		u.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.faultInLocked(s, id, s.spilled[id]); err != nil {
			t.Fatal(err)
		}
	})
	// Other goroutines' allocations count too; a frame buffer per cycle
	// would add two.
	if cycle >= encode+decode+1 {
		t.Errorf("an evict and fault-in cycle allocated %v times, encoding the frame %v and decoding it %v", cycle, encode, decode)
	}
	if got := snapshotFrames(t, e)[id]; !bytes.Equal(got, frame) {
		t.Error("the cycles changed the user frame")
	}
}

// TestRestoreRejectsOverlongWindowTime: the committed FuzzRestore seed
// overlong-window-time is a one-user snapshot whose window holds a time
// whose seconds are an overlong varint, 2 bytes where 1 suffices
// (0x8a 0x00 for 5). A decoder that copied the window's bytes would
// accept it, and a re-snapshot would keep the overlong bytes; Restore
// must reject it. FuzzRestore alone would not notice such a decoder.
func TestRestoreRejectsOverlongWindowTime(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRestore", "overlong-window-time"))
	if err != nil {
		t.Fatal(err)
	}
	// The corpus file's last line is the input, []byte("...").
	last := strings.TrimSpace(string(seed))
	last = last[strings.LastIndexByte(last, '\n')+1:]
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(last, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("seed file: %v", err)
	}
	e, err := NewEngine(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(strings.NewReader(data)); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Restore = %v, want ErrCorruptRecord for a non-canonical window", err)
	}
	if users := e.Users(); len(users) != 0 {
		t.Fatalf("rejected stream left users %v", users)
	}
}

// FuzzWindowEncoding reports arbitrary check-ins, alternating between
// two users of an engine capped at one resident user, so every report
// evicts the other user and faults its own frame back in. Each user's
// frame must equal the reference encoding of what it reported, and its
// PendingProfile profile.Build over the reported positions. A record
// is 29 bytes: the point's X and Y bits, the unix seconds, the
// nanoseconds (mod 1e9) and a flag byte whose low bit reports the zero
// time. Check-ins that would close a window are skipped, so no rebuild
// runs.
func FuzzWindowEncoding(f *testing.F) {
	rec := func(x, y float64, at time.Time) []byte {
		b := binfmt.AppendUint64(nil, math.Float64bits(x))
		b = binfmt.AppendUint64(b, math.Float64bits(y))
		b = binfmt.AppendUint64(b, uint64(at.Unix()))
		b = append(b, byte(at.Nanosecond()), byte(at.Nanosecond()>>8), byte(at.Nanosecond()>>16), byte(at.Nanosecond()>>24))
		if at.IsZero() {
			return append(b, 1)
		}
		return append(b, 0)
	}
	var seed []byte
	for _, c := range oddCheckIns() {
		seed = append(seed, rec(c.Pos.X, c.Pos.Y, c.At)...)
	}
	f.Add(seed)
	f.Add(append(rec(1, 1, time.Unix(1e9, 0)), rec(2, 2, time.Unix(1e9+1, 0))...))
	const recLen = 29
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*recLen {
			return
		}
		cfg := tieredConfig(t, 1)
		cfg.Shards = 1
		cfg.ProfileWindow = 100 * 365 * 24 * time.Hour
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ids := [2]string{"even", "odd"}
		var want [2][]BatchReport
		var start [2]time.Time
		for i := 0; len(data) >= recLen; i, data = i+1, data[recLen:] {
			r := binfmt.NewReader(data[:recLen])
			pos := r.Point()
			sec := int64(r.Uint64())
			nsec := int64(uint32(data[24]) | uint32(data[25])<<8 | uint32(data[26])<<16 | uint32(data[27])<<24)
			at := time.Unix(sec, nsec%1e9)
			if data[28]&1 == 1 {
				at = time.Time{}
			}
			k := i % 2
			if start[k].IsZero() {
				start[k] = at
			}
			if at.Sub(start[k]) >= cfg.ProfileWindow {
				continue
			}
			if err := e.Report(ids[k], pos, at); err != nil {
				t.Fatal(err)
			}
			want[k] = append(want[k], BatchReport{Pos: pos, At: at})
		}
		frames := snapshotFrames(t, e)
		for k, id := range ids {
			if len(want[k]) == 0 {
				continue
			}
			if got, ref := frames[id], referenceFrame(t, cfg.Seed, id, want[k]); !bytes.Equal(got, ref) {
				t.Fatalf("%s: user frame\n%x\nwant\n%x", id, got, ref)
			}
			pts := make([]geo.Point, len(want[k]))
			for i, c := range want[k] {
				pts[i] = c.Pos
			}
			wantProf, wantErr := profile.Build(pts, profile.DefaultConnectivityThreshold)
			gotProf, gotErr := e.PendingProfile(id)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s: PendingProfile error %v, profile.Build error %v", id, gotErr, wantErr)
			}
			if !sameProfile(gotProf, wantProf) {
				t.Fatalf("%s: PendingProfile %v, profile.Build %v", id, gotProf, wantProf)
			}
		}
	})
}

// sameProfile compares profiles bit for bit, so NaN locations compare
// equal to themselves.
func sameProfile(a, b profile.Profile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Loc.X) != math.Float64bits(b[i].Loc.X) ||
			math.Float64bits(a[i].Loc.Y) != math.Float64bits(b[i].Loc.Y) || a[i].Freq != b[i].Freq {
			return false
		}
	}
	return true
}
