package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/binfmt"
	"repro/internal/geo"
)

// TestSnapshotRestoreRoundTrip is the critical privacy property: after a
// restart (snapshot → fresh engine → restore) the permanent obfuscation
// table is byte-identical, so the attacker never sees a second release.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cfg := testConfig(t)
	e1, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	home := geo.Point{X: 0, Y: 0}
	work := geo.Point{X: 8000, Y: 3000}
	feedUser(t, e1, "alice", home, work)

	tableBefore, err := e1.Table("alice")
	if err != nil {
		t.Fatal(err)
	}
	topsBefore, err := e1.TopLocations("alice")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new engine restores the state.
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	tableAfter, err := e2.Table("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(tableAfter) != len(tableBefore) {
		t.Fatalf("table rows %d vs %d", len(tableAfter), len(tableBefore))
	}
	for i := range tableBefore {
		if tableBefore[i].Top != tableAfter[i].Top {
			t.Fatalf("entry %d top changed across restart", i)
		}
		for j := range tableBefore[i].Candidates {
			if tableBefore[i].Candidates[j] != tableAfter[i].Candidates[j] {
				t.Fatalf("entry %d candidate %d changed across restart — privacy broken", i, j)
			}
		}
	}
	topsAfter, err := e2.TopLocations("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(topsAfter) != len(topsBefore) {
		t.Fatalf("tops %d vs %d", len(topsAfter), len(topsBefore))
	}

	// Requests on the restored engine stay inside the original set.
	allowed := make(map[geo.Point]bool)
	for _, entry := range tableBefore {
		for _, c := range entry.Candidates {
			allowed[c] = true
		}
	}
	for i := 0; i < 100; i++ {
		out, fromTable, err := e2.Request("alice", home)
		if err != nil {
			t.Fatal(err)
		}
		if !fromTable || !allowed[out] {
			t.Fatalf("restored engine escaped the permanent set (fromTable=%v)", fromTable)
		}
	}
}

// TestSnapshotPreservesRandStream: the PRNG continues identically, so a
// snapshotted-and-restored run produces the same outputs as an
// uninterrupted one.
func TestSnapshotPreservesRandStream(t *testing.T) {
	cfg := testConfig(t)
	build := func() *Engine {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedUser(t, e, "bob", geo.Point{X: 0, Y: 0}, geo.Point{X: 8000, Y: 0})
		return e
	}

	// Uninterrupted run.
	e1 := build()
	var want []geo.Point
	for i := 0; i < 10; i++ {
		out, _, err := e1.Request("bob", geo.Point{X: -30000, Y: -30000})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out)
	}

	// Interrupted run: snapshot after feeding, restore, then request.
	e2 := build()
	var buf bytes.Buffer
	if err := e2.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e3, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		out, _, err := e3.Request("bob", geo.Point{X: -30000, Y: -30000})
		if err != nil {
			t.Fatal(err)
		}
		if out != want[i] {
			t.Fatalf("restored stream diverged at request %d: %v vs %v", i, out, want[i])
		}
	}
}

func TestSnapshotRestorePendingWindow(t *testing.T) {
	cfg := testConfig(t)
	e1, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	// Only pending check-ins, no profile yet.
	for i := 0; i < 30; i++ {
		at = at.Add(time.Hour)
		if err := e1.Report("carol", geo.Point{X: 5, Y: 5}, at); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e1.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	// The pending window survives: a rebuild on the restored engine
	// produces the profile from those check-ins.
	if err := e2.RebuildProfile("carol", at); err != nil {
		t.Fatal(err)
	}
	tops, err := e2.TopLocations("carol")
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != 1 || tops[0].Freq != 30 {
		t.Errorf("restored pending produced tops %+v", tops)
	}
}

// snapshotHeaderFrame frames a snapshot header with the given fields.
func snapshotHeaderFrame(format string, version, users uint64) []byte {
	b := binfmt.AppendString(nil, format)
	b = binfmt.AppendUvarint(b, version)
	return binfmt.AppendFrame(nil, binfmt.AppendUvarint(b, users))
}

// userRecord frames one snapshot user record: the ID, then a user frame.
func userRecord(id string, frame []byte) []byte {
	return binfmt.AppendFrame(nil, append(binfmt.AppendString(nil, id), frame...))
}

// snapshotRecords splits a snapshot stream into its frames, header first.
func snapshotRecords(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	for len(data) > 0 {
		_, rest, err := binfmt.SplitFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, data[:len(data)-len(rest)])
		data = rest
	}
	return recs
}

func TestRestoreErrors(t *testing.T) {
	cfg := testConfig(t)
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedUser(t, src, "alice", geo.Point{X: 0, Y: 0}, geo.Point{X: 8000, Y: 0})
	valid := snapshotBytes(t, src)
	recs := snapshotRecords(t, valid)
	alice := recs[1]
	payload, _, err := binfmt.SplitFrame(alice)
	if err != nil {
		t.Fatal(err)
	}
	aliceFrame := payload[len(binfmt.AppendString(nil, "alice")):]
	header := func(users uint64) []byte { return snapshotHeaderFrame(snapshotFormat, snapshotVersion, users) }
	flippedCRC := bytes.Clone(valid)
	flippedCRC[len(recs[0])+4] ^= 0xFF

	cases := []struct {
		name string
		body []byte
	}{
		{"garbage", []byte("{not a snapshot")},
		{"wrong format", snapshotHeaderFrame("other", snapshotVersion, 0)},
		{"wrong version", snapshotHeaderFrame(snapshotFormat, 99, 0)},
		{"count mismatch", bytes.Join([][]byte{header(2), alice}, nil)},
		{"inflated count", bytes.Join([][]byte{header(1 << 40), alice}, nil)},
		{"empty id", bytes.Join([][]byte{header(1), userRecord("", aliceFrame)}, nil)},
		{"duplicate", bytes.Join([][]byte{header(2), alice, alice}, nil)},
		{"out of order", bytes.Join([][]byte{header(2), userRecord("bob", aliceFrame), alice}, nil)},
		{"trailing bytes", bytes.Join([][]byte{header(1), userRecord("alice", append(bytes.Clone(aliceFrame), 0))}, nil)},
		{"truncated", valid[:len(valid)-1]},
		{"flipped crc", flippedCRC},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = e.Restore(bytes.NewReader(tt.body))
			if err == nil {
				t.Fatal("expected error")
			}
			t.Log(err)
		})
	}

	// A checkpoint from the retired JSON snapshot format fails with an
	// error naming the format Restore expects.
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := `{"format":"edge-privlocad-state","version":1,"users":0}` + "\n"
	if err := e.Restore(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), snapshotFormat) {
		t.Errorf("JSON snapshot: err = %v, want a %s format error", err, snapshotFormat)
	}

	// Restoring over an existing user is rejected.
	if err := src.Restore(bytes.NewReader(valid)); err == nil {
		t.Error("restore over existing user expected error")
	}
}

// TestRestoreAllOrNothing: a snapshot whose LAST user is corrupt must
// not leak the valid users that preceded it into the engine, nor bump
// the aggregate counters.
func TestRestoreAllOrNothing(t *testing.T) {
	cfg := testConfig(t)
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedUser(t, src, "alice", geo.Point{X: 0, Y: 0}, geo.Point{X: 8000, Y: 0})
	valid := snapshotBytes(t, src)

	// Header claims 2 users; alice (valid, with a real table) is
	// followed by a well-framed user whose PRNG state is corrupt: the
	// version byte, a 3-byte state, then zero profile flag, window start,
	// pending, tops and table.
	badPRNG := []byte{userFrameVersion, 3, 'x', 'y', 'z', 0, 0, 0, 0, 0}
	mangled := bytes.Join([][]byte{
		snapshotHeaderFrame(snapshotFormat, snapshotVersion, 2),
		snapshotRecords(t, valid)[1],
		userRecord("mallory", badPRNG),
	}, nil)

	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(bytes.NewReader(mangled)); err == nil {
		t.Fatal("restore with corrupt trailing user succeeded")
	}
	if got := e.Users(); len(got) != 0 {
		t.Errorf("failed restore leaked users %v", got)
	}
	if st := e.Stats(); st != (EngineStats{}) {
		t.Errorf("failed restore bumped counters: %+v", st)
	}
	// The engine is still usable after the rejected restore.
	if err := e.Restore(bytes.NewReader(valid)); err != nil {
		t.Fatalf("clean restore after failed one: %v", err)
	}
	if got := e.Users(); len(got) != 1 || got[0] != "alice" {
		t.Errorf("users after clean restore = %v", got)
	}
}

// TestRestoreIdentityAcrossShardsAndCaps: one snapshot restores into
// every engine shape — shards {1,8} × resident cap {unbounded, 4} — and
// snapshots back to the same bytes. At cap 4 Restore trims the
// population into the cold tier, so the second snapshot copies spilled
// users' frames rather than encoding them. snapshotLen, which sizes the
// stream's buffer, must read its exact length in every shape.
func TestRestoreIdentityAcrossShardsAndCaps(t *testing.T) {
	want := snapshotBytes(t, feedTrace(t, shardTrace(12, 120, 99), 1, 1))
	for _, shards := range []int{1, 8} {
		for _, cap := range []int{0, 4} {
			t.Run(fmt.Sprintf("shards=%d/cap=%d", shards, cap), func(t *testing.T) {
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
				if err := e.Restore(bytes.NewReader(want)); err != nil {
					t.Fatal(err)
				}
				if ts := e.TierStats(); cap > 0 && ts.Spilled == 0 {
					t.Fatalf("cap %d left every user resident: %+v", cap, ts)
				}
				if n := e.snapshotLen(len(e.Users())); n != len(want) {
					t.Errorf("snapshotLen = %d, want the stream's %d bytes", n, len(want))
				}
				if got := snapshotBytes(t, e); !bytes.Equal(got, want) {
					t.Errorf("re-snapshot differs (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// FuzzRestore feeds Restore arbitrary streams. The committed seeds in
// testdata/fuzz/FuzzRestore are a valid three-user snapshot taken with
// one user spilled, that snapshot cut mid-frame, one with a flipped CRC
// byte, and one whose header claims far more users than follow. Restore
// must never panic or size an allocation by an unchecked count; a
// rejected stream must leave the engine empty; an accepted one must
// snapshot back to exactly the input.
func FuzzRestore(f *testing.F) {
	cfg := testConfig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(bytes.NewReader(data)); err != nil {
			if got := e.Users(); len(got) != 0 {
				t.Fatalf("rejected stream left users %v (err %v)", got, err)
			}
			if st := e.Stats(); st != (EngineStats{}) {
				t.Fatalf("rejected stream left stats %+v (err %v)", st, err)
			}
			return
		}
		if got := snapshotBytes(t, e); !bytes.Equal(got, data) {
			t.Fatalf("accepted stream re-snapshots differently (%d vs %d bytes)", len(got), len(data))
		}
	})
}
