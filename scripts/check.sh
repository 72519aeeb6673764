#!/usr/bin/env bash
# Repo verification: the tier-1 build-and-test pass, an algorithm-split
# equivalence check (two campaigns on disjoint ETSC_BENCH_ALGOS, merged, and
# a two-worker fabric run must both equal one process under a fault that
# trips the circuit breaker), a SIMD-vs-scalar kernel equivalence gate
# (ETSC_SIMD=0 and =1 campaigns must be bit-identical), a supervisor
# fault-matrix gate (injected flaky fits,
# hung predicts and corrupted model-cache entries must leave unaffected
# cells bit-identical to a fault-free run; a malformed ETSC_FAULT entry must
# warn and inject nothing), a worker-fabric crash drill (a
# worker dying abruptly mid-cell must cost zero cells: the survivor steals the
# orphaned lease and the merged report stays bit-identical), a serving-engine
# smoke gate (batched multi-session dispatch must be bit-identical to the
# sequential StreamingSession reference and emit its report, for ECTS, for
# the bank-trigger composition 1nn+ecec-ratio, and for ECTS voting per
# variable on the multivariate Biological set), a serving chaos drill
# (a serving process dying abruptly mid-dispatch must recover from its
# session WAL with a bit-identical decision set, and a torn WAL
# tail must be skipped via Status accounting, never a crash), a composition
# gate (a 3x3 classifier-x-trigger cross-product campaign run by two fabric
# workers and merged with alpha-weighted cost scores in the report, plus
# paper-name-vs-spec twin bit-identity over --report-diff, serial and
# ETSC_THREADS=8), a perf-ledger
# gate (perfbench builds against this tree and its campaign-cold golden scores
# still match), a microbenchmark smoke gate (a default micro_substrate run
# leaves the checkout untouched), then sanitizer
# passes — ASan and
# UBSan over the suites that parse attacker-shaped bytes (model streams,
# journals, reports, dataset files), and an oversubscribed ThreadSanitizer
# pass over the concurrency-sensitive suites (thread pool, tracing/metrics,
# campaign journal, model cache, supervisor/watchdog, streaming sessions, the
# serving engine and STRUT's pooled grid). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier 1: full build + full test suite (ROADMAP.md).
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Scratch directories of every gate below; one trap removes them all.
SCRATCH=()
trap 'rm -rf "${SCRATCH[@]}"' EXIT

# Algorithm-split gate: splitting by ETSC_BENCH_ALGOS and merging with
# --merge-shards is how one campaign spans machines that share no filesystem
# (the algorithm list is not part of the journal fingerprint). Every ECTS fit
# crashes and the circuit breaker quarantines ECTS after two failed datasets,
# a decision that needs the algorithm's whole lane: the split-and-merged
# report and a two-worker fabric run must both equal the single-process run,
# quarantine skips included.
SPLIT_DIR="$(mktemp -d)"
SCRATCH+=("$SPLIT_DIR")
(
  export ETSC_BENCH_DATASETS=DodgerLoopGame,PowerCons,DodgerLoopDay,DodgerLoopWeekend \
         ETSC_BENCH_FOLDS=2 ETSC_FAULT=ECTS:crash ETSC_QUARANTINE_AFTER=2 \
         ETSC_LOG=warn
  ETSC_BENCH_ALGOS=ECTS,1nn+prob ETSC_BENCH_CACHE="$SPLIT_DIR/single.csv" \
    ./build/examples/etsc_cli --campaign
  test "$(grep -o '"quarantined":true' "$SPLIT_DIR/single.csv.report.json" \
    | wc -l)" = 2
  ETSC_BENCH_ALGOS=ECTS ETSC_BENCH_CACHE="$SPLIT_DIR/ects.csv" \
    ./build/examples/etsc_cli --campaign
  ETSC_BENCH_ALGOS=1nn+prob ETSC_BENCH_CACHE="$SPLIT_DIR/prob.csv" \
    ./build/examples/etsc_cli --campaign
  # The merge derives the expected grid from the union of both algorithm lists.
  ETSC_BENCH_ALGOS=ECTS,1nn+prob ./build/examples/etsc_cli --merge-shards \
    "$SPLIT_DIR/merged.csv" "$SPLIT_DIR/ects.csv" "$SPLIT_DIR/prob.csv"
  ./build/examples/etsc_cli --report-diff \
    "$SPLIT_DIR/single.csv.report.json" "$SPLIT_DIR/merged.csv.report.json"
  ETSC_BENCH_ALGOS=ECTS,1nn+prob ETSC_BENCH_CACHE="$SPLIT_DIR/fabric.csv" \
    ./build/examples/etsc_cli --campaign --workers 2
  ./build/examples/etsc_cli --report-diff \
    "$SPLIT_DIR/single.csv.report.json" \
    "$SPLIT_DIR/fabric.csv.merged.csv.report.json"
)
echo "check.sh: algorithm split and worker fabric match the single-process run under a tripping breaker"

# SIMD-vs-scalar equivalence: the same mini-campaign under ETSC_SIMD=0 (scalar
# reference kernels) and ETSC_SIMD=1 (explicit vector kernels) must produce
# bit-identical reports — the kernel path is a pure execution knob, never a
# result knob (DESIGN.md sec 13).
SIMD_DIR="$(mktemp -d)"
SCRATCH+=("$SIMD_DIR")
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
SCRATCH+=("$FAULT_DIR")
(
  # The supervisor knobs are part of the config fingerprint, so both runs
  # must share them; only the fault spec (a harness knob) differs.
  export ETSC_BENCH_DATASETS=DodgerLoopGame,DodgerLoopWeekend \
         ETSC_BENCH_FOLDS=2 ETSC_RETRY_MAX=1 ETSC_RETRY_BASE_MS=0.1 \
         ETSC_QUARANTINE_AFTER=1 ETSC_LOG=warn \
         ETSC_MODEL_CACHE="$FAULT_DIR/models"
  ETSC_BENCH_ALGOS=ECTS \
    ETSC_BENCH_CACHE="$FAULT_DIR/clean.csv" ./build/examples/etsc_cli --campaign
  ETSC_BENCH_ALGOS=ECTS,EDSC ETSC_FAULT="ECTS:flaky:1,EDSC:crash" \
    ETSC_BENCH_CACHE="$FAULT_DIR/faulted.csv" ./build/examples/etsc_cli --campaign
  grep -q '"quarantined":true' "$FAULT_DIR/faulted.csv.report.json"
  test "$(grep -c '"algorithm":"ECTS"[^}]*"quarantined":true' \
    "$FAULT_DIR/faulted.csv.report.json")" = 0
  ./build/examples/etsc_cli --report-diff \
    "$FAULT_DIR/clean.csv.report.json" "$FAULT_DIR/faulted.csv.report.json" \
    --ignore-algos EDSC

  # Hung predictions: the watchdog (grace * predict budget) must cancel every
  # spin and the campaign must still terminate with full-length misses.
  ETSC_BENCH_ALGOS=ECTS ETSC_FAULT="ECTS:hang-predict" \
    ETSC_BENCH_DATASETS=DodgerLoopGame ETSC_BENCH_PREDICT_BUDGET=0.01 \
    ETSC_WATCHDOG_GRACE=2 ETSC_MODEL_CACHE= \
    ETSC_BENCH_CACHE="$FAULT_DIR/hang.csv" ./build/examples/etsc_cli --campaign
  grep -q 'cancelled by watchdog' "$FAULT_DIR/hang.csv.report.json"

  # A malformed K must warn, naming the entry, and inject nothing: the
  # campaign completes instead of dying on its first cell as die-at:1 would.
  ETSC_BENCH_ALGOS=ECTS ETSC_FAULT="ECTS:die-at:0" \
    ETSC_BENCH_DATASETS=DodgerLoopGame ETSC_MODEL_CACHE= \
    ETSC_BENCH_CACHE="$FAULT_DIR/die0.csv" ./build/examples/etsc_cli --campaign \
    2> "$FAULT_DIR/die0.err"
  grep -q 'ignoring invalid ETSC_FAULT entry "ECTS:die-at:0"' "$FAULT_DIR/die0.err"

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
SCRATCH+=("$FABRIC_DIR")
(
  export ETSC_BENCH_ALGOS=ECTS ETSC_BENCH_DATASETS=DodgerLoopGame,PowerCons \
         ETSC_BENCH_FOLDS=2 ETSC_LOG=warn \
         ETSC_LEASE_TTL_MS=400 ETSC_HEARTBEAT_MS=100
  ETSC_BENCH_CACHE="$FABRIC_DIR/single.csv" ./build/examples/etsc_cli --campaign

  # w1 dies abruptly on its second cell, lease still in the journal.
  set +e
  ETSC_WORKER_ID=w1 ETSC_FAULT="ECTS:die-at:2" \
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
# trigger that reads is_last) through the same engine. The third serves a
# univariate algorithm on the 3-variable Biological dataset, voting-wrapped
# per variable exactly as a campaign fold wraps it.
SERVE_DIR="$(mktemp -d)"
SCRATCH+=("$SERVE_DIR")
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
  ./build/examples/etsc_cli --serve --algo ects --dataset Biological \
    --sessions 100 --dispatch-every 64 --serve-report "$SERVE_DIR/bio.json"
  grep -q '"bit_identical":true' "$SERVE_DIR/bio.json"

  # A malformed numeric flag is a usage error (exit 1) naming the flag and
  # its range, never a silent 0-second budget or an uncaught exception.
  rc=0
  ./build/examples/etsc_cli --algo ects --dataset PowerCons --budget abc \
    > /dev/null 2> "$SERVE_DIR/budget.err" || rc=$?
  test "$rc" -eq 1
  grep -q -- '--budget needs a number' "$SERVE_DIR/budget.err"
  rc=0
  ./build/examples/etsc_cli --serve --algo ects --dataset PowerCons \
    --sessions -1 > /dev/null 2>&1 || rc=$?
  test "$rc" -eq 1
)
echo "check.sh: serving engine batched == sequential, report emitted, bad flags rejected"

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
  ETSC_FAULT="dispatch:die-at:5" \
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
# A 3x3 grid (9 composed '<base>+<trigger>' configs) runs on two fabric
# workers and merges to one report carrying the alpha-weighted cost score
# per cell; then the paper-name-vs-composed-spec bit-identity contract
# is enforced over --report-diff (--map-algo renames the paper name onto the
# composed spec), with the composed campaign run both serial and at
# ETSC_THREADS=8.
COMPOSE_DIR="$(mktemp -d)"
SCRATCH+=("$COMPOSE_DIR")
(
  export ETSC_BENCH_DATASETS=PowerCons ETSC_BENCH_FOLDS=2 ETSC_LOG=warn
  GRID=(--classifiers minirocket-logistic,weasel,gbdt
        --triggers prob,ects-mpl,strut-search --cost-alpha 0.5)
  # The workers inherit the grid the composition flags export.
  ETSC_BENCH_CACHE="$COMPOSE_DIR/grid.csv" \
    ./build/examples/etsc_cli --campaign --workers 2 "${GRID[@]}"
  REPORT="$COMPOSE_DIR/grid.csv.merged.csv.report.json"
  grep -q '"cost_alpha":0.5' "$REPORT"
  test "$(grep -o '"cost":' "$REPORT" | wc -l)" -ge 9
  test "$(grep -o '"algorithm":"[a-z0-9-]*+[a-z0-9-]*"' "$REPORT" \
    | sort -u | wc -l)" -ge 9

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
SCRATCH+=("$PERF_DIR")
python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 1 \
  --trace 0 > "$PERF_DIR/result.txt"
tail -n 1 "$PERF_DIR/result.txt" | grep -q '"failed":0'
echo "check.sh: perfbench builds against this tree and campaign-cold matches its golden scores"

# Microbenchmark smoke: one fast micro_substrate benchmark, run from a scratch
# directory with ETSC_BENCH_SIMD_OUT unset (the default), must leave the
# checkout untouched and write no BENCH_*.json file anywhere. perfbench is the
# one ledger for serving and pool speed; BENCH_simd.json is re-recorded only
# on request, never by a plain microbenchmark run.
MICRO_DIR="$(mktemp -d)"
SCRATCH+=("$MICRO_DIR")
(
  before="$(git status --porcelain)"
  MICRO_BIN="$PWD/build/bench/micro_substrate"
  cd "$MICRO_DIR"
  env -u ETSC_BENCH_SIMD_OUT "$MICRO_BIN" --benchmark_filter='^BM_SfaWord$' \
    --benchmark_min_time=0.01 > micro.txt
  grep -q 'BM_SfaWord' micro.txt
  test -z "$(find . -name 'BENCH_*.json')"
  cd - > /dev/null
  test "$(git status --porcelain)" = "$before"
)
echo "check.sh: micro_substrate runs and leaves the checkout untouched"

# ASan: the persistence layer and the loaders parse attacker-shaped bytes
# (truncated, corrupted, garbage model streams / journals / reports /
# datasets) — exactly where memory bugs would hide — plus the SIMD kernels,
# whose padded-stride pointer arithmetic is exactly where an out-of-bounds
# vector tail read would hide, plus the trigger suite (composed model
# streams, stale-format cache demotion — more attacker-shaped bytes), plus
# the serving WAL suite (torn tails, bit-flip corruption corpus), plus the
# shared record log under all three formats and the fabric's control-row
# parser (record_log_test, fabric_test's FabricLease cases), plus the
# ETSC_FAULT grammar and its decorator (deadline_fault_test's FaultSpecParse
# and WrapWithFaults cases), plus the SFA kernels (sfa_freeze_test: the
# lane-parallel DFT reads overlapping windows in place, and the split search
# indexes dense label histograms) and Sfa::LoadState's checks on hostile
# fitted state (fourier_sfa_chi2_test's SfaLoadState cases), plus the
# WEASEL/MUSE bag path (bag_freeze_test: the id counters and the column map
# rebuilt at load) and its refusal of keys that overflow their packed fields,
# at Fit and on hostile saved state (weasel_muse_test's BagKeyLimits cases).
cmake -B build-asan -S . -DETSC_SANITIZE=address
cmake --build build-asan -j --target serialization_test corruption_test \
  simd_test trigger_test serving_wal_test record_log_test fabric_test \
  deadline_fault_test sfa_freeze_test fourier_sfa_chi2_test bag_freeze_test \
  weasel_muse_test
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
  -R 'Serialization|DatasetFingerprint|Corruption|Diagnostics|Simd|Soa|Trigger|StaleFormat|GoldenEquivalence|ServingWal|ServingIngestGuard|RecordLog|FabricLease|FaultSpecParse|WrapWithFaults|SfaFreeze|WordsFreeze|SfaLoadState|BagFreeze|BagKeyLimits'

# UBSan over the same hostile-input suites: bit flips love to manufacture
# out-of-range enums, shifts and size arithmetic that ASan alone won't flag.
cmake -B build-ubsan -S . -DETSC_SANITIZE=undefined
cmake --build build-ubsan -j --target serialization_test corruption_test \
  simd_test trigger_test serving_wal_test record_log_test fabric_test \
  deadline_fault_test sfa_freeze_test fourier_sfa_chi2_test bag_freeze_test \
  weasel_muse_test
ctest --test-dir build-ubsan --output-on-failure -j"$(nproc)" \
  -R 'Serialization|DatasetFingerprint|Corruption|Diagnostics|Simd|Soa|Trigger|StaleFormat|GoldenEquivalence|ServingWal|ServingIngestGuard|RecordLog|FabricLease|FaultSpecParse|WrapWithFaults|SfaFreeze|WordsFreeze|SfaLoadState|BagFreeze|BagKeyLimits'

# TSan, oversubscribed: only the targets whose tests exercise the pool, the
# span/metric recording, the shared campaign journal, the model cache and the
# supervisor (watchdog thread, breaker-driven lanes) are built — plus the
# trigger suite, whose golden-equivalence test drives composed classifiers
# through the pool at width 8, the streaming-cursor suite, which serves
# composed cursors through the engine at width 8, and the STRUT suite, whose
# grid scores its candidate fits concurrently on the pool; the -R filter
# keeps ctest away from the *_NOT_BUILT placeholders of the rest.
cmake -B build-tsan -S . -DETSC_SANITIZE=thread
cmake --build build-tsan -j --target parallel_test trace_test \
  journal_config_test serialization_test supervisor_test fabric_test \
  streaming_test streaming_cursor_test serving_test serving_wal_test \
  trigger_test strut_test
# The 'Serving' filter also picks up the WAL/shed/race suites of
# serving_wal_test; the fork-based die-at death tests are excluded — TSan
# does not support spawning threads after a multi-threaded fork, and the
# child's DispatchBatch does exactly that.
ETSC_THREADS=8 ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  -R 'Parallel|Trace|Counters|Journal|Campaign|Log|Json|Serialization|DatasetFingerprint|Supervisor|Watchdog|Backoff|CircuitBreaker|CancelToken|Retry|FailureTaxonomy|Fabric|Streaming|Serving|Trigger|StaleFormat|GoldenEquivalence|Strut' \
  -E 'ServingFaultDeathTest'

echo "check.sh: all green"
