// Command edged runs an Edge-PrivLocAd edge device as an HTTP service,
// backed by an in-process ad network seeded with synthetic radius-targeted
// campaigns. With -rtb the same campaigns bid in second-price RTB
// auctions under the paper's 100 ms matching deadline instead of direct
// matching.
//
// Usage:
//
//	edged -addr 127.0.0.1:8080 -campaigns 500 -epsilon 1 -n 10
//
// Endpoints: POST /v1/report, POST /v1/ads, POST /v1/rebuild,
// GET /v1/profile?user=..., GET /v1/privacy?user=..., GET /v1/stats,
// GET /v1/fingerprint?user=... (obfuscation-table digest, for recovery
// and replication audits), GET /metrics (Prometheus text exposition),
// GET /debug/traces (ring of recent and slowest request traces with
// per-stage spans), GET /healthz. With -debug-addr a second listener
// additionally serves net/http/pprof under /debug/pprof/.
//
// Logs are structured (log/slog); -log-format selects json or text.
//
// With -data-dir the engine writes through a crash-durable WAL: every
// mutation is logged (fsync per -fsync) before it is acknowledged,
// state is recovered from the newest checkpoint plus the log tail at
// startup, and checkpoints are taken every -checkpoint-every and on
// graceful shutdown.
//
// With -max-resident the engine is memory-tiered: users beyond the cap,
// picked by a CLOCK sweep that spares recently touched ones, are spilled
// to disk (under -data-dir/spill, or a temp dir) and faulted back in
// transparently on their next touch, bounding RSS for long-tailed
// populations far larger than memory.
//
// A user's profile window (the paper's three months) closes on the
// first report that falls a full window after it opened, or on POST
// /v1/rebuild; no timer closes windows.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/edge"
	"repro/internal/geoind"
	"repro/internal/logx"
	"repro/internal/par"
	"repro/internal/tracing"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edged:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	flags := flag.NewFlagSet("edged", flag.ContinueOnError)
	defaults := deploy.Params()
	var (
		addr      = flags.String("addr", "127.0.0.1:8080", "listen address")
		debugAddr = flags.String("debug-addr", "", "optional debug listen address serving net/http/pprof under /debug/pprof/")
		campaigns = flags.Int("campaigns", 500, "synthetic radius-targeted campaigns to register")
		epsilon   = flags.Float64("epsilon", defaults.Epsilon, "privacy budget epsilon of the n-fold mechanism")
		radius    = flags.Float64("radius", defaults.Radius, "indistinguishability radius r in metres")
		delta     = flags.Float64("delta", defaults.Delta, "privacy slack delta")
		nFold     = flags.Int("n", defaults.N, "number of obfuscated candidates per top location")
		seed      = flags.Uint64("seed", 1, "randomness seed")
		shards    = flags.Int("shards", core.DefaultShards, "lock-striped user-map shards (rounded up to a power of two; purely a concurrency knob — state is byte-identical at any shard count)")
		useRTB    = flags.Bool("rtb", false, "serve ads through second-price RTB auctions instead of direct matching")
		dataDir   = flags.String("data-dir", "", "durable data directory holding the write-ahead log and checkpoints; state is recovered from it at startup and every mutation is logged (keeps the obfuscation table permanent across restarts)")
		fsyncFlag = flags.String("fsync", "interval", "WAL fsync policy with -data-dir: always | interval[=<duration>] | never")
		ckptEvery = flags.Duration("checkpoint-every", 5*time.Minute, "periodic checkpoint interval with -data-dir; 0 disables periodic checkpoints (a final one is still taken on shutdown)")
		logFormat = flags.String("log-format", logx.FormatText, "structured log format: json | text")
		slowTrace = flags.Duration("slow-trace", 250*time.Millisecond, "log requests whose trace exceeds this duration with their per-stage breakdown; 0 disables")

		maxResident = flags.Int("max-resident", 0, "bound on users resident in memory; cold users beyond it (picked by a CLOCK sweep) are spilled to disk and faulted back in transparently (0 = unbounded)")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	logger, err := logx.New(*logFormat, os.Stderr)
	if err != nil {
		return err
	}

	engineCfg, err := deploy.Engine(geoind.Params{
		Radius: *radius, Epsilon: *epsilon, Delta: *delta, N: *nFold,
	}, *seed)
	if err != nil {
		return err
	}
	// The spill tier is process-local scratch, never durable state: under
	// -data-dir it lives in a subdirectory the WAL scanner ignores, and
	// without one it lives in a temp dir removed on exit. Crash recovery
	// always rebuilds from the WAL.
	var spillDir string
	if *maxResident > 0 {
		if *dataDir != "" {
			spillDir = filepath.Join(*dataDir, "spill")
		} else {
			tmp, err := os.MkdirTemp("", "edged-spill-*")
			if err != nil {
				return fmt.Errorf("creating spill dir: %w", err)
			}
			defer os.RemoveAll(tmp)
			spillDir = tmp
		}
	}
	engineCfg.Shards = *shards
	engineCfg.SpillDir = spillDir
	engineCfg.MaxResidentUsers = *maxResident
	engine, err := core.NewEngine(engineCfg)
	if err != nil {
		return fmt.Errorf("building engine: %w", err)
	}
	defer engine.Close() // releases spill files; a no-op without the tier
	var store *wal.Store
	if *dataDir != "" {
		policy, interval, err := wal.ParsePolicy(*fsyncFlag)
		if err != nil {
			return fmt.Errorf("parsing -fsync: %w", err)
		}
		store, err = wal.Open(*dataDir, wal.Options{Policy: policy, Interval: interval})
		if err != nil {
			return fmt.Errorf("opening data dir %s: %w", *dataDir, err)
		}
		defer store.Close() // idempotent; the normal path closes in serveAndPersist
		recStart := time.Now()
		stats, err := engine.Recover(store)
		if err != nil {
			return fmt.Errorf("recovering state from %s: %w", *dataDir, err)
		}
		logger.Info("recovered state",
			slog.String("data_dir", *dataDir),
			slog.Duration("took", time.Since(recStart).Round(time.Millisecond)),
			slog.Uint64("checkpoint_lsn", stats.CheckpointLSN),
			slog.Int("replayed", stats.Replayed),
			slog.Int("op_errors", stats.OpErrors))
	}

	provider, bidLog, exchange, err := deploy.NewProvider(*campaigns, *seed, *useRTB, adnet.WithBidLogCap(bidLogCap))
	if err != nil {
		return err
	}

	// The server's tracer is built here rather than defaulted so the slow
	// -trace threshold and the structured logger flow into the slow-trace
	// log lines (the in-package default traces silently).
	tracer := tracing.New(*seed, tracing.WithSlowThreshold(*slowTrace), tracing.WithLogger(logger))
	server, err := edge.NewServer(engine, provider, nil, logger, edge.WithTracer(tracer))
	if err != nil {
		return fmt.Errorf("building server: %w", err)
	}
	// The exchange's metric families are registered even in direct-match
	// mode so /metrics has a stable schema across both modes.
	exchange.Instrument(server.Registry())
	// The parallel fan-out layer shares the same registry so batch
	// rebuilds triggered through the engine are observable.
	par.Instrument(server.Registry())
	if store != nil {
		store.Instrument(server.Registry())
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("listening on debug addr %s: %w", *debugAddr, err)
		}
		defer dln.Close()
		go serveDebug(dln)
		logger.Info("pprof listener up", slog.String("url", fmt.Sprintf("http://%s/debug/pprof/", dln.Addr())))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	mode := "direct matching"
	if *useRTB {
		mode = fmt.Sprintf("RTB second-price auctions (%d bidders, 100 ms deadline)", exchange.Bidders())
	}
	logger.Info("serving",
		slog.String("url", fmt.Sprintf("http://%s", ln.Addr())),
		slog.Int("campaigns", *campaigns),
		slog.String("mode", mode),
		slog.Int("n", *nFold),
		slog.Float64("epsilon", *epsilon),
		slog.Float64("radius_m", *radius),
		slog.Float64("delta", *delta))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveAndPersist(ctx, server, engine, ln, store, *ckptEvery, logger); err != nil {
		return err
	}
	// LogSize stops at the cap; the lifetime count is what was served.
	logger.Info("shut down cleanly", slog.Uint64("bid_requests", bidLog.TotalLogged()))
	return nil
}

// bidLogCap bounds the bid-request log of either ad provider: a
// long-running edge serves one record per ad request, forever.
const bidLogCap = 1 << 16

// serveAndPersist runs the server and, in durable mode (store != nil),
// the periodic checkpointer, then takes a final checkpoint and seals the
// log on the way out — even when Serve fails. A listener or serve error
// must not discard the permanent obfuscation table: losing it would
// force a re-obfuscation on restart, which is exactly the longitudinal
// degradation the table exists to prevent. The next start replays at
// most one checkpoint interval of records.
func serveAndPersist(ctx context.Context, server *edge.Server, engine *core.Engine, ln net.Listener, store *wal.Store, ckptEvery time.Duration, logger *slog.Logger) error {
	var ckptDone chan struct{}
	stopCkpt := func() {}
	if store != nil && ckptEvery > 0 {
		ckptCtx, cancel := context.WithCancel(ctx)
		stopCkpt = cancel
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			ticker := time.NewTicker(ckptEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ckptCtx.Done():
					return
				case <-ticker.C:
					if err := checkpoint(engine, store, logger); err != nil {
						logger.Error("periodic checkpoint failed", slog.Any("err", err))
					}
				}
			}
		}()
	}

	serveErr := server.Serve(ctx, ln)
	if serveErr != nil {
		serveErr = fmt.Errorf("serving: %w", serveErr)
	}
	stopCkpt()
	if ckptDone != nil {
		<-ckptDone
	}
	if store != nil {
		if err := checkpoint(engine, store, logger); err != nil {
			serveErr = errors.Join(serveErr, fmt.Errorf("final checkpoint: %w", err))
		}
		if err := store.Close(); err != nil {
			serveErr = errors.Join(serveErr, fmt.Errorf("closing wal: %w", err))
		}
	}
	return serveErr
}

// checkpoint captures an engine snapshot and hands it to the store,
// which also compacts fully-covered WAL segments.
func checkpoint(engine *core.Engine, store *wal.Store, logger *slog.Logger) error {
	start := time.Now()
	lsn, data, err := engine.Checkpoint()
	if err != nil {
		return err
	}
	if err := store.WriteCheckpoint(lsn, data); err != nil {
		return err
	}
	logger.Info("checkpoint written",
		slog.Uint64("lsn", lsn),
		slog.Int("bytes", len(data)),
		slog.Duration("took", time.Since(start).Round(time.Millisecond)))
	return nil
}

// serveDebug serves the pprof handlers on ln. The profiling endpoints
// are mounted on a dedicated mux (not http.DefaultServeMux) so the debug
// listener exposes nothing else.
func serveDebug(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := edge.NewHTTPServer(mux)
	_ = srv.Serve(ln)
}
