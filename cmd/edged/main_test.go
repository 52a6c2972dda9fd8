package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/logx"
	"repro/internal/wal"
)

func TestRunValidationErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-epsilon", "x"}},
		{"zero epsilon", []string{"-epsilon", "0"}},
		{"bad delta", []string{"-delta", "1"}},
		{"zero n", []string{"-n", "0"}},
		{"campaign radius out of platform range rejected upstream", []string{"-addr", "127.0.0.1:0", "-campaigns", "1", "-radius", "-5"}},
		{"unlistenable addr", []string{"-addr", "256.256.256.256:99999", "-campaigns", "0"}},
		{"unlistenable debug addr", []string{"-debug-addr", "256.256.256.256:99999", "-campaigns", "0"}},
		// -data-dir carries the state; an invocation still passing the
		// removed -state flag must fail loudly, not start without its table.
		{"removed state flag", []string{"-state", "/tmp/s.jsonl", "-data-dir", "/tmp/d"}},
		{"bad fsync policy", []string{"-data-dir", "/tmp/d", "-fsync", "sometimes"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func newTestServer(t *testing.T) (*edge.Server, *core.Engine) {
	t.Helper()
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	network, err := adnet.NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	server, err := edge.NewServer(engine, network, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return server, engine
}

// openStore opens a WAL store in a fresh directory and attaches it to
// engine, the way run does for -data-dir.
func openStore(t *testing.T, engine *core.Engine) (string, *wal.Store) {
	t.Helper()
	dir := t.TempDir()
	store, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Recover(store); err != nil {
		t.Fatal(err)
	}
	return dir, store
}

// recoverDir recovers a fresh engine from dir and checks that the
// shutdown left a checkpoint covering the whole log.
func recoverDir(t *testing.T, dir string) *core.Engine {
	t.Helper()
	store, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	_, engine := newTestServer(t)
	stats, err := engine.Recover(store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointLSN == 0 {
		t.Error("shutdown did not leave a checkpoint")
	}
	if stats.Replayed != 0 {
		t.Errorf("final checkpoint should cover the whole log, yet %d records replayed", stats.Replayed)
	}
	return engine
}

// TestServeAndPersistOnFailure checks that a serve error still takes
// the final checkpoint: losing the permanent obfuscation table on a
// listener error would void the longitudinal guarantee on restart.
func TestServeAndPersistOnFailure(t *testing.T) {
	server, engine := newTestServer(t)
	dir, store := openStore(t, engine)
	if err := engine.Report("u1", geo.Point{X: 5, Y: 5}, time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // force Serve to fail immediately

	err = serveAndPersist(context.Background(), server, engine, ln, store, 0, logx.Discard())
	if err == nil {
		t.Fatal("closed listener did not produce a serve error")
	}
	if !strings.Contains(err.Error(), "serving:") {
		t.Errorf("error %q does not report the serve failure", err)
	}
	if got := recoverDir(t, dir).Stats().Users; got != 1 {
		t.Errorf("recovered users = %d, want 1", got)
	}
}

// TestServeAndPersistCleanShutdown checks the ordinary path serves,
// checkpoints on the way out and returns nil.
func TestServeAndPersistCleanShutdown(t *testing.T) {
	server, engine := newTestServer(t)
	dir, store := openStore(t, engine)
	if err := engine.Report("u1", geo.Point{X: 5, Y: 5}, time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serveAndPersist(ctx, server, engine, ln, store, 0, logx.Discard())
	}()

	// The server is up when /metrics answers.
	url := "http://" + ln.Addr().String() + "/metrics"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Fatal(rerr)
			}
			for _, want := range []string{"edge_http_requests_total", "edge_request_latency_seconds_bucket", "engine_table_hits_total", "engine_selection_seconds", "engine_users"} {
				if !strings.Contains(string(body), want) {
					t.Errorf("/metrics missing %s", want)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
	if got := recoverDir(t, dir).Stats().Users; got != 1 {
		t.Errorf("recovered users = %d, want 1", got)
	}
}

// TestServeAndPersistDurable checks the durable path: shutdown takes a
// final checkpoint and seals the WAL, and a second engine recovered
// from the same directory answers with the identical table fingerprint.
func TestServeAndPersistDurable(t *testing.T) {
	server, engine := newTestServer(t)
	dir, store := openStore(t, engine)
	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		if err := engine.Report("u1", geo.Point{X: float64(5 + i%3), Y: 5}, base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := engine.RebuildProfile("u1", base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	wantFP, err := engine.TableFingerprint("u1")
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // immediate clean shutdown; the durable epilogue still runs
	if err := serveAndPersist(ctx, server, engine, ln, store, 10*time.Millisecond, logx.Discard()); err != nil {
		t.Fatalf("durable shutdown returned %v", err)
	}

	gotFP, err := recoverDir(t, dir).TableFingerprint("u1")
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != wantFP {
		t.Errorf("fingerprint after recovery = %016x, want %016x", gotFP, wantFP)
	}
}

// TestServeDebug checks the pprof mux answers on the debug listener.
func TestServeDebug(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go serveDebug(ln)

	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

// TestProviderBidLogBounded drives one ad request past 2^16 through the
// provider edged serves from (deploy.NewProvider at edged's bidLogCap),
// in both modes: its bid log keeps the most recent 2^16 records and
// still counts every request. An uncapped log would keep a record per
// request for the life of the process.
func TestProviderBidLogBounded(t *testing.T) {
	const capped = 1 << 16
	at := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, useRTB := range []bool{false, true} {
		t.Run(fmt.Sprintf("rtb=%v", useRTB), func(t *testing.T) {
			provider, bidLog, _, err := deploy.NewProvider(0, 1, useRTB, adnet.WithBidLogCap(bidLogCap))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= capped; i++ {
				provider.RequestAds("u1", geo.Point{X: float64(i)}, at, 1)
			}
			if got := bidLog.LogSize(); got != capped {
				t.Errorf("retained %d bid records, want %d", got, capped)
			}
			if got := bidLog.TotalLogged(); got != capped+1 {
				t.Errorf("logged %d bid requests in total, want %d", got, capped+1)
			}
		})
	}
}
