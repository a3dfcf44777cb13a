#!/usr/bin/env bash
# Reach gate: every function defined in src/ must be entered by an
# entry point (a CLI verb, uvmasync-lint, uvmasync-serve with its
# client verbs, the figures binary or an example), or be listed in
# scripts/reach_allowlist.txt with the test that reaches it.
#
#   scripts/reach.sh
#
# It builds the entry points in build-cov/ with gcc's --coverage,
# plus -fkeep-inline-functions, so inline header members that only
# tests call are emitted and counted too, and -fno-early-inlining,
# so a small function inlined before instrumentation still counts
# its own entries instead of reading 0. It runs the smoke stages of
# scripts/smoke.sh and the driver below, which passes every
# documented verb and flag at least once, then reads gcov's JSON and
# takes each function's largest entry count over all objects. It
# prints `file:line: function` for every src/ function that no run
# entered and the allowlist does not name, plus every allowlist line
# that names no function any more, and then exits 1. On success it
# prints nothing. Build and driver output go to build-cov/reach.log.
#
# Allowlist lines (blank lines and lines starting with # are
# skipped) read
#
#   src/FILE: DEMANGLED-NAME # TEST
#
# where DEMANGLED-NAME is the function as gcov prints it and TEST
# names the test (gtest name or ctest name) that enters it.
set -euo pipefail
cd "$(dirname "$0")/.."

build=build-cov
log=$build/reach.log
mkdir -p "$build"
: > "$log"

step() {
    if ! "$@" >> "$log" 2>&1; then
        echo "reach: failed: $*" >&2
        tail -n 30 "$log" >&2
        exit 1
    fi
}

# A run that must fail cleanly, with exit status 1 or 2 (a refused
# input, or a quarantined or aborted point), never with a crash.
fails() {
    local rc=0
    "$@" >> "$log" 2>&1 || rc=$?
    if [ "$rc" != 1 ] && [ "$rc" != 2 ]; then
        echo "reach: expected exit status 1 or 2, got $rc: $*" >&2
        exit 1
    fi
}

step cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O1 -fkeep-inline-functions -fno-early-inlining"
step cmake --build "$build" -j"$(nproc)" \
    --target uvmasync_cli uvmasync_lint uvmasync_serve_tool figures \
    quickstart irregular_study nn_inference batch_jobs \
    custom_workload oversubscription
find "$build" -name '*.gcda' -delete

step scripts/smoke.sh "$build"

cli=$build/tools/uvmasync
lint=$build/tools/uvmasync-lint
serve=$build/tools/uvmasync-serve
work=$(mktemp -d)
serve_pid=
cleanup() {
    [ -z "$serve_pid" ] || kill "$serve_pid" 2> /dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

# A system config that sets every key applyConfig reads.
cat > "$work/system.kv" << 'EOF'
gpu.sm_count = 108
gpu.clock_mhz = 1410
gpu.hbm_gbps = 1555
gpu.shared_carveout_kib = 100
pcie.raw_gbps = 32
pcie.pageable_eff = 0.4
pcie.demand_eff = 0.35
pcie.prefetch_eff = 0.8
pcie.writeback_eff = 0.7
uvm.chunk_kib = 2048
uvm.fault_batch = 256
uvm.fault_base_us = 20
uvm.demand_prefetcher = tree
uvm.churn = 0.1
host.dimm_count = 16
host.dimm_gib = 64
alloc.context_init_ms = 150
alloc.device_alloc_ms_per_gib = 1
alloc.managed_free_ms_per_gib = 1
hbm.capacity_gib = 40
noise.system_overhead_ms = 1
noise.transfer_cv = 0.02
watchdog.max_sim_ms = 100000000
watchdog.max_events = 100000000
watchdog.max_stall_events = 100000000
EOF

# A fault-injection plan that sets every inject.* key, and one whose
# transfers exhaust their retry budget.
cat > "$work/chaos.kv" << 'EOF'
inject.seed = 3
inject.pcie.degrade_factor = 2
inject.pcie.window_start_us = 0
inject.pcie.window_end_us = 100000000
inject.pcie.stutter_period_us = 100
inject.pcie.stutter_duty = 0.5
inject.pcie.fail_rate = 0.2
inject.pcie.max_retries = 1000
inject.pcie.backoff_base_us = 1
inject.host.slow_rate = 0.5
inject.host.slow_factor = 2
inject.host.window_start_us = 0
inject.host.window_end_us = 100000000
inject.fault.batch_overflow = 4
inject.fault.overflow_penalty_us = 5
inject.fault.delay_rate = 0.5
inject.fault.delay_us = 2
inject.migrate.backpressure_rate = 0.5
inject.migrate.backpressure_us = 1
inject.migrate.storm_rate = 0.01
inject.migrate.storm_chunks = 4
inject.kernel.jitter_rate = 0.5
inject.kernel.jitter_us = 2
EOF
cat > "$work/abort.kv" << 'EOF'
inject.pcie.fail_rate = 1
inject.pcie.max_retries = 0
EOF

# CLI: list, and every registry workload in all five modes.
step "$cli" list
step "$cli" list micro
step "$cli" list apps
workloads=$("$cli" list | awk -F'|' 'NR > 3 && NF > 2 {
    gsub(/ /, "", $2); print $2 }')
for size in tiny small; do
    for w in $workloads; do
        step "$cli" run --workload "$w" --size "$size" --mode all \
            --runs 2 --no-store --csv --jobs 4
    done
done
step "$cli" run --workload lavaMD --size mega --mode uvm --runs 1 \
    --no-store
step "$cli" run --workload gemm --size small --mode all --runs 3 \
    --blocks 512 --threads 128 --carveout 64 --seed 9 \
    --config "$work/system.kv" --lint enforce --no-store \
    --csv --metrics --out "$work/run.csv"
step "$cli" run --workload saxpy --size tiny --no-lint --no-store
step "$cli" run --workload saxpy --size tiny --lint warn \
    --watchdog-max-ms 100000 --watchdog-max-events 100000000 \
    --watchdog-max-stall 100000000 --store "$work/store"
step "$cli" run --workload saxpy --size tiny --store "$work/store" \
    --store-readonly

# Fault injection: every seam, an aborted transfer and a livelock
# that the stall ceiling quarantines.
step "$cli" run --workload kmeans --size small --mode all --runs 2 \
    --inject "$work/chaos.kv" --inject-seed 5 --no-store --metrics \
    --trace "$work/chaos.json"
step "$cli" run --workload saxpy --size mega --mode uvm --runs 1 \
    --inject "$work/chaos.kv" --no-store
fails "$cli" run --workload saxpy --size tiny --mode uvm \
    --inject "$work/abort.kv" --retries 0 --no-store
fails "$cli" sweep --kind blocks --workload saxpy --size tiny \
    --inject "$work/abort.kv" --retries 0 --no-store
fails "$cli" run --workload saxpy --size medium --mode uvm \
    --inject examples/jobs/inject_livelock.kv --inject-seed 7 \
    --watchdog-max-stall 48 --retries 1 --no-store \
    --trace "$work/livelock.json"

# Job files: run (pinned, with metrics and a system config), profile
# and timeline.
step "$cli" run --jobfile examples/jobs/stencil.ini --pinned \
    --config "$work/system.kv" --lint warn --metrics \
    --out "$work/jobfile.csv" --store "$work/store"
step "$cli" run --jobfile examples/jobs/gather_scatter.ini --no-store \
    --watchdog-max-ms 100000
step "$cli" profile --jobfile examples/jobs/stencil.ini
step "$cli" timeline --jobfile examples/jobs/gather_scatter.ini

# Profile in every mode; timelines.
for mode in standard async uvm uvm_prefetch uvm_prefetch_async; do
    step "$cli" profile --workload saxpy --mode "$mode" --size small
done
step "$cli" timeline --workload kmeans --mode all --size small
step "$cli" timeline --workload saxpy --mode uvm

# Sweeps, one of them journaled, resumed, injected and stored.
for kind in blocks threads sharedmem; do
    step "$cli" sweep --kind "$kind" --csv --jobs 4 --no-store
done
step "$cli" sweep --kind blocks --workload gemv --size tiny \
    --journal "$work/sweep.jsonl" --out "$work/sweep.csv" \
    --inject examples/jobs/inject_pcie_degrade.kv --retries 0 \
    --store "$work/sweep-store" --store-max-bytes 100000000
step "$cli" sweep --kind blocks --workload gemv --size tiny \
    --resume "$work/sweep.jsonl" --out "$work/sweep.csv" \
    --inject examples/jobs/inject_pcie_degrade.kv --retries 0 \
    --store "$work/sweep-store" --store-readonly

# Store verbs.
step "$cli" store stats --store "$work/store"
step "$cli" store verify --store "$work/store"
step "$cli" store invalidate --store "$work/store" \
    --fingerprint 0000000000000001
step "$cli" store gc --store "$work/store" --store-max-bytes 1
step "$cli" store invalidate --store "$work/store"

# Linter: every verb and flag.
step "$lint" --list-codes
step "$lint" --list-passes
step "$lint" --workload gemm --size all --Werror --quiet
step "$lint" --all-workloads --size small --analyze --format sarif \
    --jobs 2
step "$lint" --jobfile examples/jobs/stencil.ini --format=text \
    --pass structural,cost-advisor --analyze
step "$lint" --config "$work/system.kv"
step "$lint" --workload saxpy --config "$work/system.kv"
step "$lint" --inject examples/jobs/inject_livelock.kv
step "$lint" --inject "$work/chaos.kv"

# Daemon: a paused daemon queues a batch that status reports and
# cancel ends; a running one serves run, submit, stream and stats.
start_serve() {
    rm -f "$work/sock"
    "$serve" --socket "$work/sock" "$@" >> "$log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 100); do
        [ -S "$work/sock" ] && return 0
        sleep 0.1
    done
    echo "reach: uvmasync-serve did not start" >&2
    exit 1
}
stop_serve() {
    step "$cli" client shutdown --socket "$work/sock"
    wait "$serve_pid"
    serve_pid=
}
start_serve --state "$work/paused" --jobs 1 --no-store --paused \
    --config "$work/system.kv"
handle=$("$cli" client submit --socket "$work/sock" \
    --workload saxpy --size tiny --mode all --runs 2 | sed 's/^batch=//')
step "$cli" client status --socket "$work/sock" --handle "$handle"
step "$cli" client cancel --socket "$work/sock" --handle "$handle"
stop_serve
start_serve --state "$work/state" --jobs 2 --store "$work/serve-store" \
    --store-max-bytes 100000000
step "$cli" client run --socket "$work/sock" --workload gemm \
    --size tiny --mode uvm --runs 2 --seed 3 --blocks 64 \
    --threads 128 --carveout 32 --retries 0
handle=$("$cli" client submit --socket "$work/sock" \
    --workload saxpy --size tiny --runs 2 | sed 's/^batch=//')
step "$cli" client stream --socket "$work/sock" --handle "$handle"
step "$cli" client stream --socket "$work/sock" --handle "$handle" \
    --from 1 --no-wait
step "$cli" client status --socket "$work/sock" --handle "$handle"
step "$cli" client stats --socket "$work/sock"
stop_serve

# fsck of a clean journal and store, then of the store with one
# segment's tail torn off.
step "$cli" fsck "$work/sweep.jsonl" "$work/sweep-store"
segment=$(find "$work/sweep-store/shards" -type f | sort | head -n 1)
head -c -5 "$segment" > "$work/torn" && mv "$work/torn" "$segment"
fails "$cli" fsck "$work/sweep-store"

# Refused input: the entry points' diagnostics, each run as a user
# meets it (non-zero exit, with a message and a did-you-mean).
cat > "$work/bad.kv" << 'EOF'
gpu.sm_cout = 108
EOF
cat > "$work/range.kv" << 'EOF'
pcie.raw_gbps = -1
uvm.chunk_kib = 3
EOF
cat > "$work/bad_inject.kv" << 'EOF'
inject.pcie.degrade_factr = 2
inject.pcie.fail_rate = 2
inject.host.window_start_us = 10
inject.host.window_end_us = 5
EOF
cat > "$work/bad.ini" << 'EOF'
[job]
name = bad
[buffer.0]
name = a
mib = 0
[kernel.0]
name = k
blocks = 0
threads = 2000
buffers = 0:zigzag:r, 3:sequential:w
EOF
cat > "$work/cycle.ini" << 'EOF'
[job]
name = cycle
[buffer.0]
name = a
mib = 1
[buffer.1]
name = unused
mib = 1
[kernel.0]
name = k0
blocks = 4
threads = 128
total_load_mib = 1
buffers = 0:sequential:r
depends = 1
[kernel.1]
name = k1
blocks = 4
threads = 128
total_load_mib = 1
buffers = 0:sequential:w
EOF
fails "$lint" --config "$work/bad.kv"
fails "$lint" --config "$work/range.kv"
fails "$lint" --jobfile "$work/cycle.ini"
fails "$lint" --inject "$work/bad_inject.kv"
fails "$lint" --jobfile "$work/bad.ini"
sed 's/buffers = .*/buffers = 0:zigzag:r/; s/blocks = 0/blocks = 4/; s/threads = 2000/threads = 128/; s/mib = 0/mib = 1/' \
    "$work/bad.ini" > "$work/bad_pattern.ini"
fails "$lint" --jobfile "$work/bad_pattern.ini"
fails "$lint" --workload saxpyy
fails "$cli" run --workload saxpy --config "$work/bad.kv"
fails "$cli" run --workload saxpy --inject "$work/bad_inject.kv"
fails "$cli" run --jobfile "$work/bad.ini"
fails "$cli" run --workload saxpyy
fails "$cli" run --workload saxpy --runs abc
fails "$cli" run --workload saxpy --jobz 2
fails "$cli" sweep --kind nope
fails "$cli" fsck "$work/missing"

# The figures binary and the examples (arguments as in their ctests).
step "$build"/bench/figures --jobs 4
step "$build"/examples/quickstart vector_seq small
step "$build"/examples/irregular_study small
step "$build"/examples/nn_inference resnet18 4
step "$build"/examples/batch_jobs small 1
step "$build"/examples/custom_workload
step "$build"/examples/oversubscription 44

# Every src/ function's largest entry count over all objects.
(cd "$build" && find . -name '*.gcda' -print0 \
    | xargs -0 gcov --json-format --stdout 2> /dev/null) \
    > "$build/reach.json"
python3 - "$build/reach.json" scripts/reach_allowlist.txt << 'EOF'
import json
import os
import sys

root = os.getcwd() + "/"
entered = {}
lines = {}
decoder = json.JSONDecoder()
text = open(sys.argv[1]).read()
pos = 0
while True:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    for f in doc["files"]:
        path = os.path.normpath(os.path.join(doc["current_working_directory"],
                                             f["file"]))
        if not path.startswith(root + "src/"):
            continue
        path = path[len(root):]
        for fn in f["functions"]:
            key = (path, fn["demangled_name"])
            entered[key] = max(entered.get(key, 0), fn["execution_count"])
            lines[key] = fn["start_line"]

allowed = set()
status = 0
for raw in open(sys.argv[2]):
    line = raw.split(" # ", 1)[0].strip()
    if not line or line.startswith("#"):
        continue
    path, _, name = line.partition(": ")
    allowed.add((path, name))
    if (path, name) not in entered:
        print(f"{sys.argv[2]}: no such function: {line}")
        status = 1

for key in sorted(entered, key=lambda k: (k[0], lines[k], k[1])):
    if entered[key] == 0 and key not in allowed:
        print(f"{key[0]}:{lines[key]}: {key[1]}")
        status = 1
sys.exit(status)
EOF
