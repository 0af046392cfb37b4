#!/usr/bin/env bash
# Tier-1 verify sequence (see ROADMAP.md) plus an examples sanity run.
# Usage: scripts/check.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)" "$@"

# Smoke-run the quickstart example end to end (pool create -> batch insert
# -> snapshot analysis -> shutdown -> reopen).
./build/quickstart --pool /tmp/dgap_check_quickstart.pool

# Smoke-run streaming analytics: async ingestion (producers -> staging
# queues -> absorbers) racing the snapshot-analysis thread.
./build/streaming_analytics --events 20000 --rounds 2 --producers 2 \
  --async-writers 2

# Smoke-run the task scheduler end to end: a 2-worker pool sized via
# --threads, absorbers running as scheduler tasks, and the analysis
# kernels on the sched execution path (--sched) instead of OpenMP.
./build/fig6_insert_throughput --threads=2 --sched --async-writers=2 \
  --datasets=orkut --scale=0.02 --batch=256 --system=dgap --pool-mb=256
./build/streaming_analytics --events 20000 --rounds 2 --producers 2 \
  --async-writers 2 --threads 2 --sched

# Smoke-run the adaptive ingest tuning path: ingest-heavy section geometry
# plus arrival-rate absorb autotuning through the async sweep.
./build/fig6_insert_throughput --ingest-profile=ingest-heavy --autotune \
  --async-writers=1 --datasets=orkut --scale=0.02 --batch=256 \
  --system=dgap --pool-mb=256
./build/streaming_analytics --events 20000 --rounds 2 --producers 2 \
  --async-writers 2 --autotune --ingest-profile ingest-heavy

# Smoke-run the snapshot-subsystem bench modes: analysis concurrent with
# async ingest (--live-ingest) and the DRAM view of one cut (--dram-view:
# kernels over DeltaMirror::build(snap) must match the raw snapshot
# exactly; the binaries exit non-zero on divergence, and the section must
# print its "identical yes" row).
./build/fig7_pr_cc --live-ingest --live-producers=2 --datasets=orkut \
  --scale=0.02 --system=dgap --pool-mb=256
for bench in fig7_pr_cc fig8_bfs_bc; do
  OUT=$(./build/$bench --dram-view --datasets=orkut --scale=0.02 \
    --system=dgap --pool-mb=256)
  grep -Eq "^orkut .* yes +$" <<<"$OUT" || {
    echo "check.sh: $bench --dram-view printed no identical row" >&2
    exit 1
  }
done

# Smoke-run incremental analytics: delta-seeded PR/CC rounds racing live
# ingest (the section verifies every round — CC labels exactly equal to the
# full kernel, PR within the shared tolerance bound — and the binary exits
# non-zero on divergence), plus the streaming example's --incremental mode
# with its final against-full check after the drain.
./build/fig7_pr_cc --live-ingest --incremental --live-producers=2 \
  --live-pace-ns=2000 --datasets=orkut --scale=0.02 --system=dgap \
  --pool-mb=256
./build/streaming_analytics --events 20000 --rounds 3 --producers 2 \
  --async-writers 2 --incremental

# Smoke-run the DRAM hot tier: read-charged kernels, cache-off vs cache-on
# (the section also verifies cache-on results match cache-off exactly).
./build/fig7_pr_cc --dram-cache=64 --datasets=orkut --scale=0.02 \
  --system=dgap --pool-mb=256

# Smoke-run the SSD cold tier under real capacity pressure: --pool-mb=2 is
# far below the graph's footprint, so the run only completes if demotion
# keeps residency within budget while kernels stay bit-identical (the
# section enforces that and the binary exits non-zero on divergence). The
# metrics samples must carry the demotion counter (the section samples
# while the tiered store lives).
COLD_DIR=$(mktemp -d /tmp/dgap_check_cold.XXXXXX)
./build/fig7_pr_cc --cold-tier --datasets=orkut --scale=0.05 \
  --system=dgap --pool-mb=2 --metrics-out="$COLD_DIR/cold-metrics.jsonl"
grep -q cold_demotions "$COLD_DIR/cold-metrics.jsonl" || {
  echo "check.sh: cold-tier metrics carry no cold_demotions" >&2
  exit 1
}
rm -rf "$COLD_DIR"
# Same run without the tier must fail with the actionable capacity error,
# not a bare bad_alloc or a crash.
if OUT=$(./build/fig7_pr_cc --datasets=orkut --scale=0.05 --system=dgap \
    --pool-mb=2 2>&1); then
  echo "check.sh: undersized tier-off run unexpectedly succeeded" >&2
  exit 1
elif ! grep -q "pool capacity exceeded" <<<"$OUT"; then
  echo "check.sh: missing capacity-error message, got: $OUT" >&2
  exit 1
fi

# Smoke-run the observability exporters: fig6 and streaming_analytics with
# the metrics sampler and structural trace ring on. Every artifact must be
# non-empty, parseable JSON (JSON-lines for metrics, chrome://tracing for
# the trace, Prometheus text for the .prom dump).
OBS_DIR=$(mktemp -d /tmp/dgap_check_obs.XXXXXX)
./build/fig6_insert_throughput --datasets=orkut --scale=0.02 --batch=256 \
  --system=dgap --pool-mb=256 \
  --metrics-out="$OBS_DIR/fig6_metrics.jsonl" --metrics-interval-ms=100 \
  --trace-out="$OBS_DIR/fig6_trace.json"
./build/streaming_analytics --events 20000 --rounds 2 --producers 2 \
  --async-writers 2 --metrics-out "$OBS_DIR/sa_metrics.jsonl" \
  --metrics-interval-ms 100 --trace-out "$OBS_DIR/sa_trace.json"
for f in fig6_metrics.jsonl sa_metrics.jsonl; do
  test -s "$OBS_DIR/$f" || { echo "check.sh: empty metrics: $f" >&2; exit 1; }
  python3 - "$OBS_DIR/$f" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "no samples"
for l in lines:
    s = json.loads(l)
    assert "t_ms" in s and "counters" in s and "hist" in s, s.keys()
EOF
done
for f in fig6_trace.json sa_trace.json; do
  test -s "$OBS_DIR/$f" || { echo "check.sh: empty trace: $f" >&2; exit 1; }
  python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert 'traceEvents' in d" "$OBS_DIR/$f"
done
test -s "$OBS_DIR/fig6_metrics.jsonl.prom" || {
  echo "check.sh: empty Prometheus dump" >&2; exit 1; }
grep -q '^# TYPE ' "$OBS_DIR/fig6_metrics.jsonl.prom"
rm -rf "$OBS_DIR"

# The CLIs must refuse nonsensical knob values instead of misbehaving.
expect_reject() {
  if "$@" > /dev/null 2>&1; then
    echo "check.sh: expected rejection: $*" >&2
    exit 1
  fi
}
expect_reject ./build/streaming_analytics --events=-5
expect_reject ./build/streaming_analytics --events=0
expect_reject ./build/streaming_analytics --events=5x
expect_reject ./build/streaming_analytics --rounds=nope
expect_reject ./build/streaming_analytics --rounds=0
expect_reject ./build/streaming_analytics --async-writers=-1
expect_reject ./build/streaming_analytics --producers=0
expect_reject ./build/fig6_insert_throughput --async-writers=0
expect_reject ./build/fig6_insert_throughput --async-writers=nope
expect_reject ./build/fig6_insert_throughput --batch=-4
expect_reject ./build/fig6_insert_throughput --batch=0
expect_reject ./build/fig6_insert_throughput --batch=5x
expect_reject ./build/table3_insert_scalability --async-writers=-2
expect_reject ./build/fig6_insert_throughput --ingest-profile=turbo
expect_reject ./build/fig6_insert_throughput --section-slots=0
expect_reject ./build/fig6_insert_throughput --section-slots=5x
expect_reject ./build/fig6_insert_throughput --section-slots=1000
expect_reject ./build/fig6_insert_throughput --section-slots=8388608
expect_reject ./build/fig6_insert_throughput --absorb-min=nope
expect_reject ./build/fig6_insert_throughput --absorb-min=-3
expect_reject ./build/table3_insert_scalability --ingest-profile=bogus
expect_reject ./build/compare_stores --ingest-profile=bogus
expect_reject ./build/streaming_analytics --ingest-profile=bogus
expect_reject ./build/fig7_pr_cc --live-producers=0
expect_reject ./build/fig7_pr_cc --live-producers=nope
expect_reject ./build/fig7_pr_cc --live-producers=-2
expect_reject ./build/table4_analysis_scalability --live-producers=0
expect_reject ./build/fig7_pr_cc --dram-cache=nope
expect_reject ./build/fig7_pr_cc --dram-cache=-8
expect_reject ./build/fig8_bfs_bc --dram-cache=0x
expect_reject ./build/fig7_pr_cc --pm-read-ns=nope
expect_reject ./build/fig7_pr_cc --incremental
expect_reject ./build/table4_analysis_scalability --incremental
expect_reject ./build/fig7_pr_cc --live-ingest --live-pace-ns=abc
expect_reject ./build/fig7_pr_cc --live-ingest --live-pace-ns=-5
expect_reject ./build/table4_analysis_scalability --live-ingest \
  --live-pace-ns=0
expect_reject ./build/fig6_insert_throughput --metrics-interval-ms=0
expect_reject ./build/fig6_insert_throughput --metrics-interval-ms=nope
expect_reject ./build/streaming_analytics --metrics-interval-ms=0
expect_reject ./build/streaming_analytics --metrics-interval-ms=nope
expect_reject ./build/fig7_pr_cc --cold-tier=nope
expect_reject ./build/fig8_bfs_bc --cold-tier=bogus
expect_reject ./build/fig6_insert_throughput --threads=0
expect_reject ./build/fig6_insert_throughput --threads=nope
expect_reject ./build/fig6_insert_throughput --threads=100000
expect_reject ./build/streaming_analytics --threads=0
expect_reject ./build/streaming_analytics --threads=nope

echo "check.sh: all good"
