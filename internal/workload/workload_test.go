package workload

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// testSource returns a small synthetic source shared by the tests.
func testSource() Synthetic {
	cfg := trace.DefaultConfig()
	cfg.NumUsers = 40
	cfg.MaxCheckIns = 200
	cfg.Seed = 7
	return Synthetic{Config: cfg}
}

// TestBuildDeterministicAcrossWorkers is the determinism regression
// test: every mode must compose bit-identical streams at any worker
// count.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	for _, mode := range Modes() {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			t.Parallel()
			var ref *Workload
			for _, workers := range []int{1, 3, 8} {
				w, err := Build(testSource(), Config{Mode: mode, Seed: 11, Parallelism: workers})
				if err != nil {
					t.Fatalf("Build(workers=%d): %v", workers, err)
				}
				if ref == nil {
					ref = w
					continue
				}
				if w.Stats != ref.Stats {
					t.Fatalf("workers=%d stats %+v != %+v", workers, w.Stats, ref.Stats)
				}
				if len(w.Streams) != len(ref.Streams) {
					t.Fatalf("workers=%d stream count %d != %d", workers, len(w.Streams), len(ref.Streams))
				}
				for i := range w.Streams {
					if len(w.Streams[i].Events) != len(ref.Streams[i].Events) {
						t.Fatalf("workers=%d user %d event count differs", workers, i)
					}
					for j, e := range w.Streams[i].Events {
						if e != ref.Streams[i].Events[j] {
							t.Fatalf("workers=%d user %d event %d: %+v != %+v",
								workers, i, j, e, ref.Streams[i].Events[j])
						}
					}
				}
			}
		})
	}
}

func TestBaselinePassthrough(t *testing.T) {
	src := testSource()
	ds, err := src.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(src, Config{Mode: ModeBaseline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, u := range ds.Users {
		total += len(u.CheckIns)
	}
	if w.Stats.Events != total || w.Stats.Mutations != 0 {
		t.Fatalf("baseline stats %+v, want %d events / 0 mutations", w.Stats, total)
	}
	for i, st := range w.Streams {
		if st.User != ds.Users[i].ID {
			t.Fatalf("stream %d user %q != dataset %q", i, st.User, ds.Users[i].ID)
		}
		for _, e := range st.Events {
			if e.AdID != st.User || e.Net != 0 {
				t.Fatalf("baseline event carries AdID=%q Net=%d", e.AdID, e.Net)
			}
		}
	}
}

func TestChurnRotatesAdIDs(t *testing.T) {
	w, err := Build(testSource(), Config{Mode: ModeChurn, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats.Mutations == 0 {
		t.Fatal("churn composed zero device resets")
	}
	multi := 0
	for _, st := range w.Streams {
		ids := make(map[string]bool)
		lastGen := ""
		for _, e := range st.Events {
			if !strings.HasPrefix(e.AdID, st.User+"/g") {
				t.Fatalf("churn AdID %q not derived from user %q", e.AdID, st.User)
			}
			if e.AdID < lastGen {
				t.Fatalf("user %s generation regressed: %q after %q", st.User, e.AdID, lastGen)
			}
			lastGen = e.AdID
			ids[e.AdID] = true
		}
		if len(ids) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no user ended up with more than one ad-ID generation")
	}
}

func TestGPSOutageDropsCorrelatedCheckIns(t *testing.T) {
	src := testSource()
	ds, err := src.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, u := range ds.Users {
		total += len(u.CheckIns)
	}
	w, err := Build(src, Config{Mode: ModeGPSOutage, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats.Mutations == 0 {
		t.Fatal("gps-outage dropped zero check-ins")
	}
	if w.Stats.Events+w.Stats.Mutations != total {
		t.Fatalf("events %d + dropped %d != source %d", w.Stats.Events, w.Stats.Mutations, total)
	}
}

func TestTravelerLeavesHomeRegion(t *testing.T) {
	w, err := Build(testSource(), Config{Mode: ModeTraveler, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats.Mutations == 0 {
		t.Fatal("traveler relocated zero check-ins")
	}
	home := trace.Shanghai().BBox
	outside := 0
	for _, st := range w.Streams {
		for _, e := range st.Events {
			if !home.Contains(e.Pos) {
				outside++
			}
		}
	}
	if outside == 0 {
		t.Fatal("no event left the home region")
	}
	if w.Extent.Width() <= home.Width() && w.Extent.Height() <= home.Height() {
		t.Fatalf("extent %+v did not grow beyond home %+v", w.Extent, home)
	}
}

func TestColludeSplitsAcrossNetworks(t *testing.T) {
	w, err := Build(testSource(), Config{Mode: ModeCollude, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats.Mutations == 0 {
		t.Fatal("collude composed zero dual-SDK sessions")
	}
	for _, st := range w.Streams {
		nets := make(map[int]string)
		for _, e := range st.Events {
			if strings.Contains(e.AdID, st.User) {
				t.Fatalf("collude pseudonym %q leaks user ID %q", e.AdID, st.User)
			}
			if prev, ok := nets[e.Net]; ok && prev != e.AdID {
				t.Fatalf("user %s network %d has two pseudonyms %q / %q", st.User, e.Net, prev, e.AdID)
			}
			nets[e.Net] = e.AdID
		}
		if len(nets) < 2 {
			t.Fatalf("user %s only reached %d network(s)", st.User, len(nets))
		}
		seen := make(map[string]bool)
		for n, id := range nets {
			if seen[id] {
				t.Fatalf("pseudonym %q reused across networks (net %d)", id, n)
			}
			seen[id] = true
		}
	}
}

func TestParseMode(t *testing.T) {
	if _, err := ParseMode("collude"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Fatal("ParseMode accepted garbage")
	}
}
