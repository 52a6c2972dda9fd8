#!/bin/sh
# Repo-wide verification: format gate, vet, build, and run the full test
# suite with the race detector. This is the bar every PR must clear.
set -eux

UNFORMATTED="$(gofmt -l cmd internal examples)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" "$UNFORMATTED" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# The benchmark is its own module (bench/go.mod), so the root ./... above
# skips it; it builds against the engine API and must keep compiling and
# passing its own tests.
(cd bench && go vet . && go test ./...)

# The fault-tolerance surfaces (failover routing, degraded merges, journal
# catch-up, client retries, bounded provider calls) are concurrency-heavy;
# run their packages under the race detector a second time with -count=2
# to shake out interleavings the single pass missed. The explicit -timeout
# covers the doubled runtime: one -race pass of edgecluster alone takes
# ~6 min on a 1-CPU host, so two runs legitimately exceed Go's 10m default.
go test -race -count=2 -timeout 30m ./internal/edgecluster ./internal/client ./internal/edge

# Ad matching collects its hits into pooled scratch shared by concurrent
# requests; ten race-detector passes of the concurrent tests check that
# no returned ad slice aliases the pool and that the index and the bid
# log stay consistent under Register and RequestAds from 8 goroutines.
go test -race -count=10 -run 'TestRequestAdsConcurrentPooledScratch$|TestNetworkConcurrency$' ./internal/adnet

# Short fuzz smoke over the delta replication codec: round-trip identity
# and the content-addressing invariant (extending the base fingerprint by
# the shipped entries must land on the full-table fingerprint, i.e. a
# delta is provably equivalent to the snapshot it replaces), then the
# cluster-level equivalence fuzzer (delta-converged replicas must be
# byte-identical to a one-shot snapshot import).
go test ./internal/wire -run '^$' -fuzz 'FuzzReplDelta$' -fuzztime 10s
go test ./internal/edgecluster -run '^$' -fuzz 'FuzzDeltaCatchUpEquivalence$' -fuzztime 15s

# External-trace adapter fuzz smoke: hostile CSV/TSV input (truncated
# lines, junk coordinates, out-of-order timestamps) must never panic the
# adapter — rows are skipped and counted, never trusted.
go test ./internal/workload -run '^$' -fuzz 'FuzzExternalSource$' -fuzztime 10s

# Profile clustering fuzz smoke: the cell-sorted union-find must match an
# O(n²) brute-force clustering bit for bit — members, centroid bits and
# cluster order — on arbitrary thresholds and points, NaN/±Inf and
# far-out coordinates included.
go test ./internal/cluster -run '^$' -fuzz 'FuzzConnectivity$' -fuzztime 10s

# Secure-merge fuzz smoke: masked rows must equal the per-party reference shares and the merge the plaintext sum.
go test ./internal/secagg -run '^$' -fuzz 'FuzzSecureMerge$' -fuzztime 10s

# Ad-matching fuzz smoke: Match must equal a naive scan over every
# campaign, order included, and RequestAds(limit) its first limit ads,
# ties by campaign ID included, for any query, population and limit.
go test ./internal/adnet -run '^$' -fuzz 'FuzzMatchEquivalence$' -fuzztime 10s

# Checkpoint codec fuzz smoke: hostile snapshot streams must be rejected
# whole (no users, zero stats) without a panic or a count-sized
# allocation, and an accepted stream must re-snapshot byte for byte.
go test ./internal/core -run '^$' -fuzz 'FuzzRestore$' -fuzztime 10s

# Chaos smoke: kill edge endpoints under live traffic and let the
# ping-based failure detector confirm and revive them — the simulation
# itself never calls MarkDown/MarkUp, and it exits non-zero unless the
# byte-identity audit passes and delta bytes undercut snapshot bytes.
# The greps pin the detector-driven transitions and the replication
# accounting lines the run must report.
CHAOS_OUT="$(mktemp)"
go run ./cmd/lbasim -edges 3 -chaos -users 10 -max-checkins 200 | tee "$CHAOS_OUT"
grep -q 'replication audit: .* byte-identical' "$CHAOS_OUT"
grep -Eq 'auto_downs=[1-9]' "$CHAOS_OUT"
grep -Eq 'auto_revives=[1-9]' "$CHAOS_OUT"
grep -Eq 'replication: delta_bytes=[1-9][0-9]* snapshot_bytes=[1-9][0-9]* ratio=0\.' "$CHAOS_OUT"
rm -f "$CHAOS_OUT"

# Every Benchmark* function (the paper's cost tables in bench_test.go,
# the engine serving benches, and each package's microbenches) runs
# once, so none of them rots between the times someone measures with
# go test -bench. Timing is not gated here: the serving benchmark in
# bench/ (run above) is the one that judges performance.
go test -run '^$' -bench . -benchtime 1x ./...

# Every example program runs once: go build ./... above only compiles
# them, and edgeflow and multiedge build the default deployment from
# internal/deploy, so a broken default shows here too. set -e fails the
# verify on the first example that exits non-zero.
for EXAMPLE in examples/*/; do
    go run "./$EXAMPLE"
done

# Smoke the serving path under closed-loop load in both wire codecs: a
# few hundred batched requests against an in-process edge, so every
# verify exercises the sharded engine, /v1/report/batch, the pooled
# handler hot path, and the binary frame codec end to end. Each summary
# must end with the span-leak gate: every request trace the run opened
# was also closed.
LOADGEN_OUT="$(mktemp)"
for WIRE_CODEC in json binary; do
    go run ./cmd/loadgen -users 16 -workers 4 -requests 400 -batch 16 -campaigns 20 -wire "$WIRE_CODEC" | tee "$LOADGEN_OUT"
    grep -q '^tracing: active_spans=0$' "$LOADGEN_OUT"
done
rm -f "$LOADGEN_OUT"

# Workload-scenario smoke: loadgen replays a churn workload (device
# resets mid-trace) through the serving path, and lbasim runs the
# colluding cross-edge adversary end to end. The lbasim run exits
# non-zero unless the colluding join beats the single-network attack AND
# the n-fold Gaussian defense degrades it back inside the paper band;
# the greps pin that both scenario paths actually engaged.
SCN_OUT="$(mktemp)"
go run ./cmd/loadgen -scenario churn -users 64 -workers 4 -requests 2000 -batch 16 -campaigns 20 | tee "$SCN_OUT"
grep -Eq '^scenario: mode=churn events=[1-9][0-9]* mutations=[1-9][0-9]* replayed=[1-9][0-9]*$' "$SCN_OUT"
go run ./cmd/lbasim -scenario collude -users 12 -max-checkins 120 | tee "$SCN_OUT"
grep -q 'collusion: defense holds' "$SCN_OUT"
grep -Eq 'joins=[1-9]' "$SCN_OUT"
rm -f "$SCN_OUT"

# Resident-cap flake guard: a rebuild worker's lock once left a shard
# over quota with no later touch to trim it. RebuildPart restores quota
# itself; with that step removed, about one run in five of this test
# fails, so 50 runs (~1 s) catch a regression.
go test ./internal/core -run 'TestRebuildPartSequentialEquivalence$' -count=50

# Kill-and-recover smoke: start edged on a WAL data directory with
# fsync=always, drive reports and a rebuild, SIGKILL the process, restart
# it from the same directory, and require /v1/stats and the
# obfuscation-table fingerprint to survive the crash bit-for-bit.
# -max-resident 4 at -shards 1 keeps at most 4 of the 9 users resident,
# so the crash hits an engine with most of its population spilled, and
# recovery replays the WAL into a capped engine that evicts as it goes.
EDGED_ADDR=127.0.0.1:18431
EDGED_BIN="$(mktemp)"
WALDIR="$(mktemp -d)"
go build -o "$EDGED_BIN" ./cmd/edged

edged_ready() {
    for _ in $(seq 1 100); do
        if curl -fs "http://$EDGED_ADDR/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "edged never came up" >&2
    return 1
}

"$EDGED_BIN" -addr "$EDGED_ADDR" -data-dir "$WALDIR" -fsync always -checkpoint-every 0 -campaigns 5 -shards 1 -max-resident 4 &
EDGED_PID=$!
edged_ready
i=0
while [ "$i" -lt 40 ]; do
    curl -fs -X POST "http://$EDGED_ADDR/v1/report" \
        -d "{\"user_id\":\"smoke\",\"pos\":{\"x\":$((i % 5 * 20)),\"y\":10},\"time\":\"2021-01-01T00:$(printf '%02d' "$i"):00Z\"}" >/dev/null
    i=$((i + 1))
done
curl -fs -X POST "http://$EDGED_ADDR/v1/rebuild" -d '{"user_id":"smoke"}' >/dev/null
curl -fs "http://$EDGED_ADDR/metrics" | grep -q '^wal_appends_total [1-9]'

# Mixed-protocol interop smoke: the same live edged instance the JSON
# curl traffic above drove now takes binary-wire traffic from loadgen.
# Both codecs share one server, the negotiated-codec counters must show
# it, and the binary-ingested reports ride through the crash-recovery
# check below like any JSON ones.
go run ./cmd/loadgen -users 8 -workers 2 -requests 200 -batch 8 -mix 1:0 -wire binary -addr "http://$EDGED_ADDR" >/dev/null
curl -fs "http://$EDGED_ADDR/metrics" | grep -q 'wire_requests_total{codec="binary"} [1-9]'
curl -fs "http://$EDGED_ADDR/metrics" | grep -q 'wire_requests_total{codec="json"} [1-9]'
# Nine users against a 4-user cap: the tier counters must show real
# evict/fault-in churn, and the runtime memory gauges must be scraping.
curl -fs "http://$EDGED_ADDR/metrics" | grep -q '^core_faultins_total [1-9]'
curl -fs "http://$EDGED_ADDR/metrics" | grep -q '^mem_heap_alloc_bytes [1-9]'
PRE_STATS="$(curl -fs "http://$EDGED_ADDR/v1/stats")"
PRE_FP="$(curl -fs "http://$EDGED_ADDR/v1/fingerprint?user=smoke")"
kill -9 "$EDGED_PID"
wait "$EDGED_PID" || true

"$EDGED_BIN" -addr "$EDGED_ADDR" -data-dir "$WALDIR" -fsync always -checkpoint-every 0 -campaigns 5 -shards 1 -max-resident 4 &
EDGED_PID=$!
edged_ready
POST_STATS="$(curl -fs "http://$EDGED_ADDR/v1/stats")"
POST_FP="$(curl -fs "http://$EDGED_ADDR/v1/fingerprint?user=smoke")"
curl -fs "http://$EDGED_ADDR/metrics" | grep -q '^wal_recovery_records_total [1-9]'
[ "$PRE_STATS" = "$POST_STATS" ]
[ "$PRE_FP" = "$POST_FP" ]
# SIGTERM this time: shutdown takes the final checkpoint, written while
# most users are spilled (their frames are copied into it as stored).
kill "$EDGED_PID"
wait "$EDGED_PID" || true
echo "kill-and-recover smoke passed: $POST_FP"

# Checkpoint-restore smoke: a third start must restore that checkpoint —
# the recovery log names a non-zero checkpoint_lsn — into the capped
# engine, with /v1/stats and the fingerprint unchanged.
EDGED_LOG="$(mktemp)"
"$EDGED_BIN" -addr "$EDGED_ADDR" -data-dir "$WALDIR" -fsync always -checkpoint-every 0 -campaigns 5 -shards 1 -max-resident 4 2>"$EDGED_LOG" &
EDGED_PID=$!
edged_ready
CKPT_STATS="$(curl -fs "http://$EDGED_ADDR/v1/stats")"
CKPT_FP="$(curl -fs "http://$EDGED_ADDR/v1/fingerprint?user=smoke")"
kill "$EDGED_PID"
wait "$EDGED_PID" || true
grep -Eq 'msg="recovered state".* checkpoint_lsn=[1-9]' "$EDGED_LOG"
rm -rf "$WALDIR" "$EDGED_BIN" "$EDGED_LOG"
[ "$PRE_STATS" = "$CKPT_STATS" ]
[ "$PRE_FP" = "$CKPT_FP" ]
echo "checkpoint-restore smoke passed: $CKPT_FP"
