package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/binfmt"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/wal"
)

// Digests of the persisted bytes of pinnedHistory, taken before the
// record, frame and table encoders moved to internal/binfmt. A change
// that moves one of them changes what existing data directories, spill
// files and checkpoints hold, and has to bump a version instead.
const (
	pinnedWALDigest      = "be79a6e859c03915"
	pinnedSnapshotDigest = "b9ebc238c1819647"
	pinnedSpillDigest    = "0550640514061e9f"
)

// pinnedHistory drives one fixed history through every logged record
// but the import: single reports with nanosecond times, a mixed-user
// batch, a zero-time report, rebuilds, a tops sync and install, and ad
// requests after the tables exist.
func pinnedHistory(t *testing.T, e *Engine) {
	t.Helper()
	base := time.Date(2021, 3, 1, 8, 0, 0, 123456789, time.UTC)
	at := func(i int) time.Time { return base.Add(time.Duration(i)*7*time.Minute + time.Duration(i)*1013) }
	homes := map[string]geo.Point{"alice": {X: 1000, Y: 1200}, "bob": {X: -3000, Y: 800}, "carol": {X: 5000, Y: -2500}}
	jitter := func(i int) geo.Point { return geo.Point{X: float64(i%7)*3.25 - 9, Y: float64(i%5)*4.5 - 8} }
	for i := 0; i < 24; i++ {
		if err := e.Report("alice", homes["alice"].Add(jitter(i)), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	var items []BatchReport
	for i := 0; i < 40; i++ {
		user := []string{"bob", "carol"}[i%2]
		items = append(items, BatchReport{UserID: user, Pos: homes[user].Add(jitter(i)), At: at(100 + i)})
	}
	if errs := e.ReportBatch(items); len(errs) > 0 {
		t.Fatal(errs[0].Err)
	}
	if err := e.Report("dave", geo.Point{X: 7, Y: 9}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	for i, user := range []string{"alice", "bob", "carol"} {
		if err := e.RebuildProfile(user, at(200+i)); err != nil {
			t.Fatal(err)
		}
	}
	tops := profile.Profile{{Loc: geo.Point{X: 9000, Y: 9000}, Freq: 4}, {Loc: homes["bob"], Freq: 3}}
	if err := e.SyncTops("bob", tops, at(300)); err != nil {
		t.Fatal(err)
	}
	if err := e.InstallTops("carol", tops, at(301)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for _, user := range []string{"alice", "bob", "carol", "dave"} {
			if _, _, err := e.Request(user, homes[user].Add(jitter(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		if err := e.Report("alice", homes["alice"].Add(jitter(i)), at(400+i)); err != nil {
			t.Fatal(err)
		}
	}
}

func pinDigest(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPersistedBytesPinned holds the WAL segment, the Snapshot stream
// and the spill frames of pinnedHistory to the digests above, at shards
// {1, 8}. Spill frames are compared as a sorted set: which file and
// offset a frame lands at depends on eviction order, its bytes do not.
func TestPersistedBytesPinned(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(t)
			cfg.Shards = shards
			cfg.SpillDir = t.TempDir()
			cfg.MaxResidentUsers = noCap
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			st, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := e.Recover(st); err != nil {
				t.Fatal(err)
			}
			pinnedHistory(t, e)
			seg, err := os.ReadFile(filepath.Join(dir, "wal-00000000000000000000.seg"))
			if err != nil {
				t.Fatal(err)
			}
			if got := pinDigest(seg); got != pinnedWALDigest {
				t.Errorf("WAL segment digest %s (%d B), want %s", got, len(seg), pinnedWALDigest)
			}
			snap := snapshotBytes(t, e)
			if got := pinDigest(snap); got != pinnedSnapshotDigest {
				t.Errorf("snapshot digest %s (%d B), want %s", got, len(snap), pinnedSnapshotDigest)
			}
			if n := evictAll(t, e); n != 4 {
				t.Fatalf("evictAll = %d; want all 4 users spilled", n)
			}
			files, err := filepath.Glob(filepath.Join(cfg.SpillDir, "spill-*.dat"))
			if err != nil {
				t.Fatal(err)
			}
			var frames [][]byte
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for len(data) > 0 {
					_, rest, err := binfmt.SplitFrame(data)
					if err != nil {
						t.Fatal(err)
					}
					frames = append(frames, data[:len(data)-len(rest)])
					data = rest
				}
			}
			sort.Slice(frames, func(i, j int) bool { return bytes.Compare(frames[i], frames[j]) < 0 })
			if got := pinDigest(frames...); got != pinnedSpillDigest || len(frames) != 4 {
				t.Errorf("spill frames digest %s (%d frames), want %s (4 frames)", got, len(frames), pinnedSpillDigest)
			}
		})
	}
}
