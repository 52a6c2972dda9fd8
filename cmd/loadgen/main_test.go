package main

import (
	"fmt"
	"testing"

	"repro/internal/deploy"
	"repro/internal/randx"
)

// TestWorkerStreamDerivation is the regression for the additive worker
// stream selector (stream = w + base): worker streams must be pairwise
// distinct across realistic fan-out widths, must never land on the
// campaign-placement stream the in-process edge draws its layout from
// (deploy.CampaignStream), and must not recur when the base itself
// shifts by a worker index (the linear-collision family the additive
// scheme suffered — selector w+base equals selector w'+base whenever
// w' = w, but ALSO equals any other additively derived stream whose
// base differs by an index delta).
func TestWorkerStreamDerivation(t *testing.T) {
	seen := map[uint64]string{deploy.CampaignStream: "campaign stream"}
	for w := 0; w < 4096; w++ {
		s := workerStream(w)
		if prev, ok := seen[s]; ok {
			t.Fatalf("worker %d stream %#x collides with %s", w, s, prev)
		}
		seen[s] = fmt.Sprintf("worker %d", w)
	}
	// The old additive scheme collapses under index-shifted bases; the
	// avalanche must not: Mix64(base + w·γ) with a base offset of one
	// gamma is exactly the stream of worker w+1, so derive from a
	// DIFFERENT family base and require full separation.
	for w := 0; w < 4096; w++ {
		s := randx.Mix64(deploy.CampaignStream + uint64(w)*randx.GoldenGamma)
		if prev, ok := seen[s]; ok {
			t.Fatalf("campaign-family stream %d (%#x) collides with %s", w, s, prev)
		}
	}
	// Old-scheme demonstration pinned down: additive selectors from two
	// bases overlap as soon as the bases differ by less than the width.
	oldStream := func(base uint64, w int) uint64 { return base + uint64(w) }
	if oldStream(streamWorkerBase, 8) != oldStream(streamWorkerBase+3, 5) {
		t.Fatal("additive selectors stopped colliding — update this regression's premise")
	}
	gamma := uint64(randx.GoldenGamma)
	if workerStream(8) == randx.Mix64(streamWorkerBase+3+8*gamma) {
		t.Fatal("avalanche derivation reproduced the additive collision")
	}
}

func TestParseMix(t *testing.T) {
	tests := []struct {
		in      string
		r, a    int
		wantErr bool
	}{
		{in: "4:1", r: 4, a: 1},
		{in: "1:0", r: 1, a: 0},
		{in: "0:1", r: 0, a: 1},
		{in: "0:0", wantErr: true},
		{in: "4", wantErr: true},
		{in: "a:b", wantErr: true},
	}
	for _, tt := range tests {
		r, a, err := parseMix(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseMix(%q) err = %v", tt.in, err)
			continue
		}
		if err == nil && (r != tt.r || a != tt.a) {
			t.Errorf("parseMix(%q) = %d:%d, want %d:%d", tt.in, r, a, tt.r, tt.a)
		}
	}
}

// TestRunSmall drives a tiny closed-loop run end to end against the
// in-process edge, batched and unbatched.
func TestRunSmall(t *testing.T) {
	for _, batch := range []int{1, 8} {
		cfg := config{
			Users: 4, Workers: 2, Requests: 80, Mix: "4:1", Batch: batch,
			Campaigns: 5, Seed: 7,
		}
		var err error
		cfg.mixReports, cfg.mixAds, err = parseMix(cfg.Mix)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runOne(cfg, "test")
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if res.CheckIns == 0 || res.HTTPOps == 0 {
			t.Errorf("batch=%d: no work done: %+v", batch, res)
		}
		if res.BatchRejected != 0 {
			t.Errorf("batch=%d: %d rejected items", batch, res.BatchRejected)
		}
	}
}
