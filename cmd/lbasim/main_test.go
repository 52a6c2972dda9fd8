package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/edge"
)

func TestRunSmallSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	err := run([]string{"-users", "5", "-max-checkins", "120", "-campaigns", "30", "-seed", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallSimulationWithRTB(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	err := run([]string{"-users", "4", "-max-checkins", "100", "-campaigns", "20", "-seed", "3", "-rtb"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-users", "x"},
		{"-users", "0"},
		{"-addr", "http://127.0.0.1:1", "-edges", "3"},
		{"-addr", "http://127.0.0.1:1", "-rtb"},
		{"-scenario", "nope"},
		{"-batch", "0"},
		{"-wire", "xml"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded, want an error", args)
		}
	}
}

func TestRunClusterWithChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	// The cluster run self-verifies: it fails unless every edge's table is
	// byte-identical after chaos kills, degraded merges, and journal
	// catch-up.
	err := run([]string{"-users", "5", "-max-checkins", "120", "-seed", "4", "-edges", "3", "-chaos", "-stats-every", "0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosNeedsEdges(t *testing.T) {
	if err := run([]string{"-chaos"}, io.Discard); err == nil {
		t.Error("-chaos without -edges expected error")
	}
}

// TestRunModes drives the one replay loop through every backend with the
// options each mode once ignored. A cluster run fails unless its tables
// are byte-identical after convergence and delta replication beat
// snapshots; a collude run fails unless the colluding join beats the
// single-network attack and the defense holds it inside the paper band.
func TestRunModes(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	small := []string{"-users", "4", "-max-checkins", "80", "-campaigns", "20", "-stats-every", "0"}
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"batched-binary", []string{"-batch", "8", "-wire", "binary"}, []string{"scenario baseline: ", "tracing: active_spans=0\n"}},
		{"churn", []string{"-scenario", "churn", "-batch", "16"}, []string{"scenario churn: ", "tracing: active_spans=0\n"}},
		{"traveler-chaos", []string{"-scenario", "traveler", "-edges", "3", "-chaos", "-wire", "binary"},
			[]string{"replication audit: ", "auto_downs=2 auto_revives=2", "scenario traveler: ", "tracing: active_spans=0\n"}},
		// The collusion gates are statistical; this is the population the
		// verify script's collude smoke runs.
		{"collude-rtb", []string{"-scenario", "collude", "-edges", "3", "-rtb", "-users", "12", "-max-checkins", "120"},
			[]string{"serving ads via RTB", "replication audit: ", "collusion: defense holds", "tracing: active_spans=0\n"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append(append([]string(nil), small...), tc.args...), &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}

// TestRunAddr replays against an edge the test serves itself, as
// -addr drives a running edged.
func TestRunAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	engineCfg, err := deploy.Engine(deploy.Params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	provider, _, _, err := deploy.NewProvider(20, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer(engine, provider, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-addr", ts.URL, "-users", "4", "-max-checkins", "80", "-batch", "8", "-wire", "binary"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if st := engine.Stats(); st.Users != 4 || st.ProtectedTops == 0 {
		t.Errorf("edge stats after the replay = %+v, want 4 users with protected tops", st)
	}
	for _, w := range []string{"edged at " + ts.URL, "table hits: ", "longitudinal attack"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("output lacks %q:\n%s", w, out.String())
		}
	}
	if strings.Contains(out.String(), "tracing:") {
		t.Errorf("-addr run printed the in-process span gate:\n%s", out.String())
	}
}

// TestRunBatchAndCodecInvariance pins that batching and the wire codec
// change nothing the run measures: engine state is byte-identical across
// batch sizes and codecs, so every deterministic line must be too, on
// one edge and on a cluster under chaos.
func TestRunBatchAndCodecInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	deterministic := func(t *testing.T, args ...string) string {
		var out bytes.Buffer
		args = append([]string{"-users", "5", "-max-checkins", "120", "-campaigns", "20", "-stats-every", "0"}, args...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		var keep []string
		for _, line := range strings.Split(out.String(), "\n") {
			for _, p := range []string{"ads fetched", "table hits:", "longitudinal attack", "scenario ", "replication audit:", "replication:", "fault tolerance:"} {
				if strings.HasPrefix(line, p) {
					keep = append(keep, line)
				}
			}
		}
		return strings.Join(keep, "\n")
	}
	for _, backend := range [][]string{nil, {"-edges", "3", "-chaos"}} {
		a := deterministic(t, append([]string{"-batch", "1", "-wire", "json"}, backend...)...)
		b := deterministic(t, append([]string{"-batch", "16", "-wire", "binary"}, backend...)...)
		if a != b {
			t.Errorf("%q: -batch 1 -wire json printed\n%s\n-batch 16 -wire binary printed\n%s", backend, a, b)
		}
		if !strings.Contains(a, "table hits:") || (backend != nil && !strings.Contains(a, "fault tolerance:")) {
			t.Errorf("%q: deterministic lines missing:\n%s", backend, a)
		}
	}
}
