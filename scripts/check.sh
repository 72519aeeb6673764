#!/usr/bin/env bash
# Repo verification: the tier-1 build-and-test pass, a shard-merge
# equivalence check, a SIMD-vs-scalar kernel equivalence gate (ETSC_SIMD=0
# and =1 campaigns must be bit-identical), a supervisor fault-matrix gate (injected flaky fits,
# hung predicts and corrupted model-cache entries must leave unaffected
# cells bit-identical to a fault-free run), a worker-fabric crash drill (a
# worker dying abruptly mid-cell must cost zero cells: the survivor steals the
# orphaned lease and the merged report stays bit-identical), a serving-engine
# smoke gate (batched multi-session dispatch must be bit-identical to the
# sequential StreamingSession reference and emit its report, for ECTS and
# for the bank-trigger composition 1nn+ecec-ratio), a serving chaos drill
# (a serving process dying abruptly mid-dispatch must recover from its
# session WAL with a bit-identical decision set, and a torn WAL
# tail must be skipped via Status accounting, never a crash), a composition
# gate (a 3x3 classifier-x-trigger cross-product campaign sharded and merged
# with alpha-weighted cost scores in the report, plus paper-name-vs-spec twin
# bit-identity over --report-diff, serial and ETSC_THREADS=8), a perf-ledger
# gate (perfbench builds against this tree and its campaign-cold golden scores
# still match), then sanitizer
# passes — ASan and
# UBSan over the suites that parse attacker-shaped bytes (model streams,
# journals, reports, dataset files), and an oversubscribed ThreadSanitizer
# pass over the concurrency-sensitive suites (thread pool, tracing/metrics,
# campaign journal, model cache, supervisor/watchdog, streaming sessions and
# the serving engine). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier 1: full build + full test suite (ROADMAP.md).
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Shard-merge smoke test: a tiny 2-shard campaign, merged, must produce a
# report identical (modulo timings) to the same campaign run in one process.
SHARD_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DIR"' EXIT
(
  export ETSC_BENCH_ALGOS=ECTS ETSC_BENCH_DATASETS=DodgerLoopGame,PowerCons \
         ETSC_BENCH_FOLDS=2 ETSC_LOG=warn
  ETSC_BENCH_CACHE="$SHARD_DIR/single.csv" ./build/examples/etsc_cli --campaign
  ETSC_BENCH_CACHE="$SHARD_DIR/j.csv" ./build/examples/etsc_cli --campaign --shard 0/2
  ETSC_BENCH_CACHE="$SHARD_DIR/j.csv" ./build/examples/etsc_cli --campaign --shard 1/2
  ETSC_BENCH_CACHE="$SHARD_DIR/j.csv" ./build/examples/etsc_cli --merge-shards \
    "$SHARD_DIR/merged.csv" "$SHARD_DIR/j.csv.shard-0-of-2" "$SHARD_DIR/j.csv.shard-1-of-2"
  ./build/examples/etsc_cli --report-diff \
    "$SHARD_DIR/single.csv.report.json" "$SHARD_DIR/merged.csv.report.json"
)
echo "check.sh: shard merge matches the single-process run"

# SIMD-vs-scalar equivalence: the same mini-campaign under ETSC_SIMD=0 (scalar
# reference kernels) and ETSC_SIMD=1 (explicit vector kernels) must produce
# bit-identical reports — the kernel path is a pure execution knob, never a
# result knob (DESIGN.md sec 13).
SIMD_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DIR" "$SIMD_DIR"' EXIT
(
  export ETSC_BENCH_ALGOS=ECTS ETSC_BENCH_DATASETS=DodgerLoopGame,PowerCons \
         ETSC_BENCH_FOLDS=2 ETSC_LOG=warn
  ETSC_SIMD=0 ETSC_BENCH_CACHE="$SIMD_DIR/scalar.csv" \
    ./build/examples/etsc_cli --campaign
  ETSC_SIMD=1 ETSC_BENCH_CACHE="$SIMD_DIR/simd.csv" \
    ./build/examples/etsc_cli --campaign
  grep -q '"isa_active":"scalar"' "$SIMD_DIR/scalar.csv.report.json"
  ./build/examples/etsc_cli --report-diff \
    "$SIMD_DIR/scalar.csv.report.json" "$SIMD_DIR/simd.csv.report.json"
)
echo "check.sh: scalar and SIMD kernel paths are bit-identical"

# Supervisor fault matrix: a mini-campaign with a flaky ECTS (recovers after
# one retry), a deterministically crashing EDSC (quarantined by the circuit
# breaker after the first failure), and a corrupted model-cache entry must
# (a) run to completion, (b) quarantine exactly the poisoned algorithm, and
# (c) leave the unaffected ECTS cells bit-identical to a fault-free run.
FAULT_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DIR" "$SIMD_DIR" "$FAULT_DIR"' EXIT
(
  # The supervisor knobs are part of the config fingerprint, so both runs
  # must share them; only the fault spec (a harness knob) differs.
  export ETSC_BENCH_DATASETS=DodgerLoopGame,DodgerLoopWeekend \
         ETSC_BENCH_FOLDS=2 ETSC_RETRY_MAX=1 ETSC_RETRY_BASE_MS=0.1 \
         ETSC_QUARANTINE_AFTER=1 ETSC_LOG=warn \
         ETSC_MODEL_CACHE="$FAULT_DIR/models"
  ETSC_BENCH_ALGOS=ECTS \
    ETSC_BENCH_CACHE="$FAULT_DIR/clean.csv" ./build/examples/etsc_cli --campaign
  ETSC_BENCH_ALGOS=ECTS,EDSC ETSC_BENCH_FAULT="ECTS:flaky:1,EDSC:crash" \
    ETSC_BENCH_CACHE="$FAULT_DIR/faulted.csv" ./build/examples/etsc_cli --campaign
  grep -q '"quarantined":true' "$FAULT_DIR/faulted.csv.report.json"
  test "$(grep -c '"algorithm":"ECTS"[^}]*"quarantined":true' \
    "$FAULT_DIR/faulted.csv.report.json")" = 0
  ./build/examples/etsc_cli --report-diff \
    "$FAULT_DIR/clean.csv.report.json" "$FAULT_DIR/faulted.csv.report.json" \
    --ignore-algos EDSC

  # Hung predictions: the watchdog (grace * predict budget) must cancel every
  # spin and the campaign must still terminate with full-length misses.
  ETSC_BENCH_ALGOS=ECTS ETSC_BENCH_FAULT="ECTS:hang-predict" \
    ETSC_BENCH_DATASETS=DodgerLoopGame ETSC_BENCH_PREDICT_BUDGET=0.01 \
    ETSC_WATCHDOG_GRACE=2 ETSC_MODEL_CACHE= \
    ETSC_BENCH_CACHE="$FAULT_DIR/hang.csv" ./build/examples/etsc_cli --campaign
  grep -q 'cancelled by watchdog' "$FAULT_DIR/hang.csv.report.json"

  # Corrupted model cache: truncate every stored model, then prove a re-run
  # evicts the bad entries (logged misses, counted) and still reproduces the
  # clean report bit-for-bit after refitting.
  for entry in "$FAULT_DIR/models"/*.etsc; do
    head -c 32 "$entry" > "$entry.cut" && mv "$entry.cut" "$entry"
  done
  rm -f "$FAULT_DIR/clean.csv" "$FAULT_DIR/clean.csv.report.json"
  ETSC_BENCH_ALGOS=ECTS \
    ETSC_BENCH_CACHE="$FAULT_DIR/clean.csv" ./build/examples/etsc_cli --campaign
  grep -q '"model_cache.corrupt_evictions":[1-9]' \
    "$FAULT_DIR/clean.csv.report.json"
  ./build/examples/etsc_cli --report-diff \
    "$FAULT_DIR/clean.csv.report.json" "$FAULT_DIR/faulted.csv.report.json" \
    --ignore-algos EDSC
)
echo "check.sh: fault matrix contained — quarantine precise, clean cells bit-identical"

# Worker-fabric crash drill: two lease-fabric workers over one shared journal,
# one killed mid-cell by the die-at fault (abrupt _Exit(86): the journal is
# left exactly as a SIGKILL would leave it, orphaned lease included). The
# survivor must wait out the lease TTL, steal the cell, and finish the grid —
# zero lost cells, merged report bit-identical to the single-process run.
FABRIC_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DIR" "$SIMD_DIR" "$FAULT_DIR" "$FABRIC_DIR"' EXIT
(
  export ETSC_BENCH_ALGOS=ECTS ETSC_BENCH_DATASETS=DodgerLoopGame,PowerCons \
         ETSC_BENCH_FOLDS=2 ETSC_LOG=warn \
         ETSC_LEASE_TTL_MS=400 ETSC_HEARTBEAT_MS=100
  ETSC_BENCH_CACHE="$FABRIC_DIR/single.csv" ./build/examples/etsc_cli --campaign

  # w1 dies abruptly on its second cell, lease still in the journal.
  set +e
  ETSC_WORKER_ID=w1 ETSC_BENCH_FAULT="ECTS:die-at:2" \
    ./build/examples/etsc_cli --worker --cache "$FABRIC_DIR/fabric.csv"
  rc=$?
  set -e
  test "$rc" -eq 86

  # w2 joins the same journal and must log the steal of the orphaned lease.
  ETSC_WORKER_ID=w2 ./build/examples/etsc_cli --worker \
    --cache "$FABRIC_DIR/fabric.csv" 2> "$FABRIC_DIR/w2.err"
  cat "$FABRIC_DIR/w2.err" >&2
  grep -q "stealing expired lease" "$FABRIC_DIR/w2.err"

  # Merge validates the fingerprint, strips lease/quarantine control rows,
  # and must find every grid cell terminal: zero lost cells.
  ./build/examples/etsc_cli --merge-shards \
    "$FABRIC_DIR/fabric-merged.csv" "$FABRIC_DIR/fabric.csv"
  test "$(grep -vc '^#' "$FABRIC_DIR/fabric-merged.csv")" = 2
  ! grep -q '^@' "$FABRIC_DIR/fabric-merged.csv"
  ./build/examples/etsc_cli --report-diff \
    "$FABRIC_DIR/single.csv.report.json" \
    "$FABRIC_DIR/fabric-merged.csv.report.json"

  # Coordinator path: --workers forks the fleet, runs the continuous merge
  # loop, and emits the final report only when every cell is terminal.
  ETSC_BENCH_CACHE="$FABRIC_DIR/coord.csv" ./build/examples/etsc_cli \
    --campaign --workers 2
  ./build/examples/etsc_cli --report-diff \
    "$FABRIC_DIR/single.csv.report.json" \
    "$FABRIC_DIR/coord.csv.merged.csv.report.json"
)
echo "check.sh: crash drill survived — lease stolen, zero lost cells, merged report bit-identical"

# Serving smoke: a short multi-session ingest trace through the serving
# engine must decide every session bit-identically to the sequential
# single-StreamingSession reference (exit 4 on any divergence) and emit the
# throughput/latency report. The second run serves a bank trigger
# (1nn+ecec-ratio: a per-checkpoint 1NN bank with posteriors, a stateful
# trigger that reads is_last) through the same engine.
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DIR" "$SIMD_DIR" "$FAULT_DIR" "$FABRIC_DIR" "$SERVE_DIR"' EXIT
(
  export ETSC_LOG=warn
  ./build/examples/etsc_cli --serve --algo ects --dataset PowerCons \
    --sessions 100 --dispatch-every 64 --serve-report "$SERVE_DIR/serve.json"
  grep -q '"bit_identical":true' "$SERVE_DIR/serve.json"
  grep -q '"sessions_per_second":' "$SERVE_DIR/serve.json"
  grep -q '"decision_p99_seconds":' "$SERVE_DIR/serve.json"
  ./build/examples/etsc_cli --serve --algo 1nn+ecec-ratio --dataset PowerCons \
    --sessions 100 --dispatch-every 64 --serve-report "$SERVE_DIR/ecec.json"
  grep -q '"bit_identical":true' "$SERVE_DIR/ecec.json"
)
echo "check.sh: serving engine batched == sequential, report emitted"

# Serving chaos drill: the serving process is killed abruptly mid-dispatch
# (die-at fault, _Exit(86): the session WAL is left exactly as a SIGKILL
# would leave it). A fresh process recovers from the WAL, resumes the same
# ingest trace at the durable offsets, and every decision — label, prefix
# length, DecisionMeta — must be bit-identical to the never-crashed
# sequential replay. Then the torn-WAL gate: chop the journal mid-row and
# prove recovery skips the torn tail via Status accounting, never a crash.
(
  export ETSC_LOG=warn
  DRILL=(--serve --algo ects --dataset PowerCons --sessions 100 --dispatch-every 64)

  # Reference: an uncrashed run with the journal on stays bit-identical and
  # reports its durability counters.
  ./build/examples/etsc_cli "${DRILL[@]}" --wal "$SERVE_DIR/ref.wal" \
    --serve-report "$SERVE_DIR/ref.json"
  grep -q '"bit_identical":true' "$SERVE_DIR/ref.json"
  grep -q '"wal_appends":[1-9]' "$SERVE_DIR/ref.json"

  # Crash mid-dispatch: observations already acknowledged are durable.
  set +e
  ETSC_SERVE_FAULT="die-at-dispatch:5" \
    ./build/examples/etsc_cli "${DRILL[@]}" --wal "$SERVE_DIR/crash.wal"
  rc=$?
  set -e
  test "$rc" -eq 86
  test -s "$SERVE_DIR/crash.wal"

  # Recover + resume: exit 4 (divergence) is the failure mode being gated.
  ./build/examples/etsc_cli "${DRILL[@]}" --wal "$SERVE_DIR/crash.wal" \
    --recover --serve-report "$SERVE_DIR/recovered.json"
  grep -q '"bit_identical":true' "$SERVE_DIR/recovered.json"
  grep -q '"recovered":true' "$SERVE_DIR/recovered.json"
  grep -q '"sessions_recovered":[1-9]' "$SERVE_DIR/recovered.json"

  # Torn tail: cut into the last row (newline, sentinel and one data byte
  # gone — a crash between write and flush). Recovery must skip exactly that
  # row, count it, and still converge on the bit-identical decision set.
  cp "$SERVE_DIR/crash.wal" "$SERVE_DIR/torn.wal"
  truncate -s $(( $(stat -c%s "$SERVE_DIR/torn.wal") - 7 )) "$SERVE_DIR/torn.wal"
  ./build/examples/etsc_cli "${DRILL[@]}" --wal "$SERVE_DIR/torn.wal" \
    --recover --serve-report "$SERVE_DIR/torn.json"
  grep -q '"bit_identical":true' "$SERVE_DIR/torn.json"
  grep -q '"wal_torn_rows":1' "$SERVE_DIR/torn.json"
)
echo "check.sh: serving chaos drill — crash recovered from WAL, torn tail skipped, decisions bit-identical"

# Composition gate: the classifier/trigger cross-product (DESIGN.md sec 15).
# A 3x3 grid (9 composed '<base>+<trigger>' configs) runs as a sharded
# campaign and merges to one report carrying the alpha-weighted cost score
# per cell; then the paper-name-vs-composed-spec bit-identity contract
# is enforced over --report-diff (--map-algo renames the paper name onto the
# composed spec), with the composed campaign run both serial and at
# ETSC_THREADS=8.
COMPOSE_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DIR" "$SIMD_DIR" "$FAULT_DIR" "$FABRIC_DIR" "$SERVE_DIR" "$COMPOSE_DIR"' EXIT
(
  export ETSC_BENCH_DATASETS=PowerCons ETSC_BENCH_FOLDS=2 ETSC_LOG=warn
  GRID=(--classifiers minirocket-logistic,weasel,gbdt
        --triggers prob,ects-mpl,strut-search --cost-alpha 0.5)
  ETSC_BENCH_CACHE="$COMPOSE_DIR/grid.csv" \
    ./build/examples/etsc_cli --campaign --shard 0/2 "${GRID[@]}"
  ETSC_BENCH_CACHE="$COMPOSE_DIR/grid.csv" \
    ./build/examples/etsc_cli --campaign --shard 1/2 "${GRID[@]}"
  # The merge derives the expected grid from the same composition flags.
  ./build/examples/etsc_cli --merge-shards "$COMPOSE_DIR/merged.csv" \
    "$COMPOSE_DIR/grid.csv.shard-0-of-2" "$COMPOSE_DIR/grid.csv.shard-1-of-2" \
    "${GRID[@]}"
  grep -q '"cost_alpha":0.5' "$COMPOSE_DIR/merged.csv.report.json"
  test "$(grep -o '"cost":' "$COMPOSE_DIR/merged.csv.report.json" | wc -l)" -ge 9
  test "$(grep -o '"algorithm":"[a-z0-9-]*+[a-z0-9-]*"' \
    "$COMPOSE_DIR/merged.csv.report.json" | sort -u | wc -l)" -ge 9

  # ECTS (an alias) vs its composed spec 1nn+ects-mpl: every score bit-identical,
  # whether the composed run is serial or oversubscribed.
  export ETSC_BENCH_DATASETS=DodgerLoopGame,PowerCons
  ETSC_BENCH_ALGOS=ECTS ETSC_BENCH_CACHE="$COMPOSE_DIR/legacy.csv" \
    ./build/examples/etsc_cli --campaign
  ETSC_THREADS=1 ETSC_BENCH_ALGOS=1nn+ects-mpl \
    ETSC_BENCH_CACHE="$COMPOSE_DIR/twin1.csv" ./build/examples/etsc_cli --campaign
  ETSC_THREADS=8 ETSC_BENCH_ALGOS=1nn+ects-mpl \
    ETSC_BENCH_CACHE="$COMPOSE_DIR/twin8.csv" ./build/examples/etsc_cli --campaign
  ./build/examples/etsc_cli --report-diff \
    "$COMPOSE_DIR/legacy.csv.report.json" "$COMPOSE_DIR/twin1.csv.report.json" \
    --map-algo ECTS=1nn+ects-mpl
  ./build/examples/etsc_cli --report-diff \
    "$COMPOSE_DIR/legacy.csv.report.json" "$COMPOSE_DIR/twin8.csv.report.json" \
    --map-algo ECTS=1nn+ects-mpl
)
echo "check.sh: composition gate — 3x3 grid merged with cost scores, paper name == composed spec"

# Perf-ledger gate: perfbench/ links against the library's public surface
# (MakeComposedFromSpec, RegisterBuiltinClassifiers, bench::Campaign) from its
# own CMake project, so build it from this checkout and run one short
# campaign-cold pass. The run re-checks ECTS/EDSC/S-MINI/S-WEASEL scores
# against perfbench/golden_campaign.csv; a mismatch, a failed cell or a failed
# operation shows up as a non-zero "failed" count in its last stdout line.
PERF_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DIR" "$SIMD_DIR" "$FAULT_DIR" "$FABRIC_DIR" "$SERVE_DIR" "$COMPOSE_DIR" "$PERF_DIR"' EXIT
python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 1 \
  --trace 0 > "$PERF_DIR/result.txt"
tail -n 1 "$PERF_DIR/result.txt" | grep -q '"failed":0'
echo "check.sh: perfbench builds against this tree and campaign-cold matches its golden scores"

# ASan: the persistence layer and the loaders parse attacker-shaped bytes
# (truncated, corrupted, garbage model streams / journals / reports /
# datasets) — exactly where memory bugs would hide — plus the SIMD kernels,
# whose padded-stride pointer arithmetic is exactly where an out-of-bounds
# vector tail read would hide, plus the trigger suite (composed model
# streams, stale-format cache demotion — more attacker-shaped bytes), plus
# the serving WAL suite (torn tails, bit-flip corruption corpus), plus the
# shared record log under all three formats and the fabric's control-row
# parser (record_log_test, fabric_test's FabricLease cases).
cmake -B build-asan -S . -DETSC_SANITIZE=address
cmake --build build-asan -j --target serialization_test corruption_test \
  simd_test trigger_test serving_wal_test record_log_test fabric_test
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
  -R 'Serialization|DatasetFingerprint|Corruption|Diagnostics|Simd|Soa|Trigger|StaleFormat|GoldenEquivalence|ServingWal|ServingIngestGuard|RecordLog|FabricLease'

# UBSan over the same hostile-input suites: bit flips love to manufacture
# out-of-range enums, shifts and size arithmetic that ASan alone won't flag.
cmake -B build-ubsan -S . -DETSC_SANITIZE=undefined
cmake --build build-ubsan -j --target serialization_test corruption_test \
  simd_test trigger_test serving_wal_test record_log_test fabric_test
ctest --test-dir build-ubsan --output-on-failure -j"$(nproc)" \
  -R 'Serialization|DatasetFingerprint|Corruption|Diagnostics|Simd|Soa|Trigger|StaleFormat|GoldenEquivalence|ServingWal|ServingIngestGuard|RecordLog|FabricLease'

# TSan, oversubscribed: only the targets whose tests exercise the pool, the
# span/metric recording, the shared campaign journal, the model cache and the
# supervisor (watchdog thread, breaker-driven lanes) are built — plus the
# trigger suite, whose golden-equivalence test drives composed classifiers
# through the pool at width 8, and the streaming-cursor suite, which serves
# composed cursors through the engine at width 8; the -R filter keeps ctest
# away from the *_NOT_BUILT placeholders of the rest.
cmake -B build-tsan -S . -DETSC_SANITIZE=thread
cmake --build build-tsan -j --target parallel_test trace_test \
  journal_config_test serialization_test supervisor_test fabric_test \
  streaming_test streaming_cursor_test serving_test serving_wal_test \
  trigger_test
# The 'Serving' filter also picks up the WAL/shed/race suites of
# serving_wal_test; the fork-based die-at death tests are excluded — TSan
# does not support spawning threads after a multi-threaded fork, and the
# child's DispatchBatch does exactly that.
ETSC_THREADS=8 ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  -R 'Parallel|Trace|Counters|Journal|Campaign|Log|Json|Serialization|DatasetFingerprint|Supervisor|Watchdog|Backoff|CircuitBreaker|CancelToken|Retry|FailureTaxonomy|Fabric|Streaming|Serving|Trigger|StaleFormat|GoldenEquivalence' \
  -E 'ServingFaultDeathTest'

echo "check.sh: all green"
