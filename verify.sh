#!/bin/sh
# Repo-wide verification: format gate, vet, build, and run the full test
# suite with the race detector. This is the bar every PR must clear.
set -eux

UNFORMATTED="$(gofmt -l *.go bench cmd examples internal)"
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

# Restarting an edge swaps its engine while reports, batches and ad
# requests run through edge.Server. Twenty race-detector passes check
# that no call reads the engine mid-swap, that no acknowledged check-in
# is lost, and that stats, fingerprints and snapshots match a run
# without the restart.
go test -race -count=20 -run 'TestRestartNodeUnderTraffic$' ./internal/edgecluster

# Ad matching collects its hits into pooled scratch shared by concurrent
# requests; ten race-detector passes of the concurrent tests check that
# no returned ad slice aliases the pool and that the index and the bid
# log stay consistent under Register and RequestAds from 8 goroutines.
go test -race -count=10 -run 'TestRequestAdsConcurrentPooledScratch$|TestNetworkConcurrency$' ./internal/adnet

# The wire codec must not depend on the engine: core, wal and wire share
# internal/binfmt's primitives and frame, and a wire -> core import is
# what once forced core to keep copies of them.
if go list -deps ./internal/wire | grep -qx 'repro/internal/core'; then
    echo "internal/wire depends on internal/core" >&2
    exit 1
fi

# The engine's cold tier lives in internal/core: the shard's spilled map
# is the one record of where a spilled user's frame lies, and the spill
# file is core's own. A core -> wal import is what once let a second
# index of spilled users live in the WAL package.
if go list -deps ./internal/core | grep -qx 'repro/internal/wal'; then
    echo "internal/core depends on internal/wal" >&2
    exit 1
fi

# Frame fuzz smoke: on arbitrary bytes the slice reader (SplitFrame) and
# the stream reader (ReadFrame) return the same payload or both fail, an
# accepted payload re-frames to the same bytes, and no header makes a
# read allocate past the 16 MiB bound.
go test ./internal/binfmt -run '^$' -fuzz 'FuzzFrame$' -fuzztime 10s

# Short fuzz smoke over the delta replication codec: round-trip identity
# and the content-addressing invariant on the packed suffix (a suffix
# cut from a packed table equals its entries packed alone, and a replica
# holding the base prefix that imports the decoded suffix lands on the
# full-table fingerprint, i.e. a delta is provably equivalent to the
# snapshot it replaces), then the cluster-level equivalence fuzzer
# (delta-converged replicas must be byte-identical to a one-shot
# snapshot import).
go test ./internal/wire -run '^$' -fuzz 'FuzzReplDelta$' -fuzztime 10s

# Serving-codec fuzz smoke: arbitrary bytes into every binary and JSON
# message decoder. The hand-written JSON decoder may accept only what
# encoding/json accepts, with an equal value, and may reject what it
# accepts only for its four deliberate reasons.
go test ./internal/wire -run '^$' -fuzz 'FuzzDecodeArbitrary$' -fuzztime 10s
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

# Secure-merge fuzz smoke: masked rows must equal the per-party reference shares, drawn from each pair's AES-CTR keystream spelled out block by block, and the merge the plaintext sum.
go test ./internal/secagg -run '^$' -fuzz 'FuzzSecureMerge$' -fuzztime 10s

# Ad-matching fuzz smoke: Match must equal a naive scan over every
# campaign, order included, and RequestAds(limit) its first limit ads,
# ties by campaign ID included, for any query, population and limit.
go test ./internal/adnet -run '^$' -fuzz 'FuzzMatchEquivalence$' -fuzztime 10s

# Checkpoint codec fuzz smoke: hostile snapshot streams must be rejected
# whole (no users, zero stats) without a panic or a count-sized
# allocation, and an accepted stream must re-snapshot byte for byte.
go test ./internal/core -run '^$' -fuzz 'FuzzRestore$' -fuzztime 10s

# Collection-window fuzz smoke: arbitrary check-ins (point bits, times
# the zero time and beyond int64 nanoseconds included) reported into an
# engine capped at one resident user, so every report evicts and faults
# in, must reach the user frame exactly as their reference encoding,
# and PendingProfile must equal profile.Build over their positions.
go test ./internal/core -run '^$' -fuzz 'FuzzWindowEncoding$' -fuzztime 10s

# Chaos smoke: kill edge endpoints under live traffic and let the
# ping-based failure detector confirm and revive them — the simulation
# itself never calls MarkDown/MarkUp, and it exits non-zero unless the
# byte-identity audit passes and delta bytes undercut snapshot bytes.
# The greps pin the detector-driven transitions and the replication
# accounting lines the run must report, that the cluster served ads
# through the edge server's /v1/ads, and the span-leak gate: every
# request trace the run opened was also closed.
CHAOS_OUT="$(mktemp)"
go run ./cmd/lbasim -edges 3 -chaos -users 10 -max-checkins 200 | tee "$CHAOS_OUT"
grep -q 'replication audit: .* byte-identical' "$CHAOS_OUT"
grep -Eq 'auto_downs=[1-9]' "$CHAOS_OUT"
grep -Eq 'auto_revives=[1-9]' "$CHAOS_OUT"
grep -Eq 'replication: delta_bytes=[1-9][0-9]* snapshot_bytes=[1-9][0-9]* ratio=0\.' "$CHAOS_OUT"
grep -Eq 'ads fetched from provider: [1-9]' "$CHAOS_OUT"
grep -q '^tracing: active_spans=0$' "$CHAOS_OUT"
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

# Smoke the serving path in both wire codecs: a batched replay through
# an in-process edge, so every verify exercises the sharded engine,
# /v1/report/batch, the pooled handler hot path, and the binary frame
# codec end to end. Each run must end with the span-leak gate: every
# request trace the run opened was also closed.
CODEC_OUT="$(mktemp)"
for WIRE_CODEC in json binary; do
    go run ./cmd/lbasim -users 16 -max-checkins 60 -batch 16 -campaigns 20 -stats-every 0 -wire "$WIRE_CODEC" | tee "$CODEC_OUT"
    grep -q '^tracing: active_spans=0$' "$CODEC_OUT"
done
rm -f "$CODEC_OUT"

# Workload-scenario smoke: lbasim replays a churn workload (device
# resets mid-trace) through one edge, and the colluding cross-network
# adversary end to end through a three-edge cluster. The collude run
# exits non-zero unless the colluding join beats the single-network
# attack AND the n-fold Gaussian defense degrades it back inside the
# paper band; the greps pin that both scenarios actually engaged.
SCN_OUT="$(mktemp)"
go run ./cmd/lbasim -scenario churn -users 64 -max-checkins 100 -batch 16 -campaigns 20 -stats-every 0 | tee "$SCN_OUT"
grep -Eq '^scenario churn: users=64 events=[1-9][0-9]* mutations=[1-9][0-9]* ' "$SCN_OUT"
grep -q '^tracing: active_spans=0$' "$SCN_OUT"
go run ./cmd/lbasim -scenario collude -edges 3 -users 12 -max-checkins 120 | tee "$SCN_OUT"
grep -q 'collusion: defense holds' "$SCN_OUT"
grep -Eq 'joins=[1-9]' "$SCN_OUT"
rm -f "$SCN_OUT"

# Resident-cap flake guard: a rebuild worker's lock once left a shard
# over quota with no later touch to trim it. RebuildAll restores quota
# itself at the end of the pass. With that step removed the quota test
# fails on every run, while the capped pass over a concurrent rebuild
# fails only now and then, so both run 50 times (~1 s).
go test ./internal/core -run 'TestRebuildAllUnderCap$|TestRebuildAllRestoresQuota$' -count=50

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
# curl traffic above drove now takes lbasim's replay, first in binary
# frames and then in JSON. Both codecs share one server, the
# negotiated-codec counters must show it, and the replayed reports,
# rebuilds and ad requests ride through the crash-recovery check below
# like the curl ones. A replay touches each user once, so its first
# pass only evicts; the second faults the evicted users back in.
for WIRE_CODEC in binary json; do
    go run ./cmd/lbasim -addr "http://$EDGED_ADDR" -users 8 -max-checkins 40 -batch 8 -wire "$WIRE_CODEC" >/dev/null
done
curl -fs "http://$EDGED_ADDR/metrics" | grep -q 'wire_requests_total{codec="binary"} [1-9]'
curl -fs "http://$EDGED_ADDR/metrics" | grep -q 'wire_requests_total{codec="json"} [1-9]'
# Nine users against a 4-user cap: the tier counters must show real
# evict/fault-in churn, and the runtime memory gauges must be scraping.
curl -fs "http://$EDGED_ADDR/metrics" | grep -q '^core_faultins_total [1-9]'
curl -fs "http://$EDGED_ADDR/metrics" | grep -q '^core_evictions_total [1-9]'
curl -fs "http://$EDGED_ADDR/metrics" | grep -q '^mem_heap_alloc_bytes [1-9]'
# Two JSON bodies the edge once stored a check-in from: a report with a
# second value after it (the second was dropped silently) and a report
# without a position (stored at the projection origin). Both must answer
# 400, count as JSON decode errors and leave /v1/stats unchanged.
BAD_BEFORE="$(curl -fs "http://$EDGED_ADDR/v1/stats")"
BAD_STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$EDGED_ADDR/v1/report" \
    -d '{"user_id":"trailing","pos":{"x":1,"y":2}}{"user_id":"second","pos":{"x":3,"y":4}}')"
[ "$BAD_STATUS" = 400 ]
BAD_STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$EDGED_ADDR/v1/report" -d '{"user_id":"nopos"}')"
[ "$BAD_STATUS" = 400 ]
[ "$BAD_BEFORE" = "$(curl -fs "http://$EDGED_ADDR/v1/stats")" ]
curl -fs "http://$EDGED_ADDR/metrics" | grep -q 'wire_decode_errors_total{codec="json"} [1-9]'
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
