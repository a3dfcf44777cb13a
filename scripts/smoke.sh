#!/usr/bin/env bash
# The entry-point smoke stages of the CI gate, run against the
# binaries of one build tree: the static model linter over the whole
# workload registry, the cost-model analyze stage (error advisories
# fail it; output byte-identical at any --jobs), a trace-export
# smoke run, a chaos stage (an injected smoke run), a resume stage
# (journal byte-determinism across job counts, kill-and-resume CSV
# and stdout identity, watchdog quarantine), a store stage
# (cold-vs-warm CSV identity through the result store, hit-rate
# accounting, eviction under a byte budget), an fsck stage
# (deliberate multi-layer damage caught at exit 1, repaired in place
# with --repair, and the repaired artifacts proven byte-identical on
# resume/warm rerun) and a serve stage (the campaign daemon's result
# streams byte-identical to the batch CLI with concurrent clients,
# across kill -9 plus journal truncation, and warm from the shared
# store).
#
#   scripts/smoke.sh BUILD_DIR             # all stages
#   scripts/smoke.sh BUILD_DIR --no-chaos  # skip the chaos stage
#   scripts/smoke.sh BUILD_DIR --no-serve  # skip the serve stage
#
# scripts/check.sh runs it on build/; scripts/reach.sh runs it on
# the coverage tree build-cov/ as part of its entry-point driver.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: scripts/smoke.sh BUILD_DIR [--no-chaos] [--no-serve]" >&2
    exit 2
fi
build=$1
shift
run_chaos=1
run_serve=1
for arg in "$@"; do
    case "$arg" in
        --no-chaos) run_chaos=0 ;;
        --no-serve) run_serve=0 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

echo "== lint: static analysis of the workload registry =="
"$build"/tools/uvmasync-lint --all-workloads --size all

echo "== analyze: static cost model over the workload registry =="
# The campaign advisor prices every registry point without
# simulating. Error-severity advisories fail the stage (the tool
# exits non-zero on errors), and the output must be byte-identical
# at any --jobs count — the analyzer is pure and deterministic. The
# prediction-accuracy band itself is gated by test_cost_model in
# tier-1, which diffs tests/golden/cost_model_accuracy.csv.
analyze_out=$(mktemp -d)
"$build"/tools/uvmasync-lint --analyze --all-workloads --size all \
    --jobs 1 > "$analyze_out/analyze-j1.txt"
"$build"/tools/uvmasync-lint --analyze --all-workloads --size all \
    --jobs 8 > "$analyze_out/analyze-j8.txt"
cmp "$analyze_out/analyze-j1.txt" "$analyze_out/analyze-j8.txt"
rm -rf "$analyze_out"

echo "== trace: smoke export of an explicit and a UVM run =="
# Every export must parse as strict JSON (json.tool rejects, among
# others, unescaped control characters in strings).
trace_out=$(mktemp -d)
trap 'rm -rf "$trace_out"' EXIT
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --trace "$trace_out/trace.json" --metrics > /dev/null
python3 -m json.tool "$trace_out/trace.json" > /dev/null
grep -q '"cat": "fault"' "$trace_out/trace.json"
"$build"/tools/uvmasync run --jobfile examples/jobs/stencil.ini \
    --no-store --trace "$trace_out/jobfile.json" > /dev/null 2>&1
python3 -m json.tool "$trace_out/jobfile.json" > /dev/null

if [ "$run_chaos" = 1 ]; then
    echo "== chaos: injection suite + injected smoke run =="
    # The demo plan must lint clean, an injected UVM run must surface
    # inject.* spans in the Chrome export, and an uninjected run must
    # never mention them (the provable-inertness guarantee).
    "$build"/tools/uvmasync-lint \
        --inject examples/jobs/inject_pcie_degrade.kv
    "$build"/tools/uvmasync run --workload saxpy --size tiny \
        --runs 2 --inject examples/jobs/inject_pcie_degrade.kv \
        --inject-seed 7 \
        --trace "$trace_out/inject.json" --metrics > /dev/null
    python3 -m json.tool "$trace_out/inject.json" > /dev/null
    grep -q '"cat": "inject"' "$trace_out/inject.json"
    ! grep -q 'inject' "$trace_out/trace.json"
fi

echo "== resume: crash-safe journal + watchdog quarantine =="
# Journal and merged CSV are byte-deterministic across job counts.
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 1 --journal "$trace_out/j1.jsonl" \
    --out "$trace_out/ref.csv" > "$trace_out/ref.stdout"
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 4 --journal "$trace_out/j4.jsonl" \
    --out "$trace_out/par.csv" > /dev/null
cmp "$trace_out/j1.jsonl" "$trace_out/j4.jsonl"
cmp "$trace_out/ref.csv" "$trace_out/par.csv"
# A job file's five modes are one batch as well; `run --jobfile`
# takes its worker count from UVMASYNC_JOBS.
for jobs in 1 4; do
    UVMASYNC_JOBS=$jobs "$build"/tools/uvmasync run \
        --jobfile examples/jobs/stencil.ini --no-store \
        --journal "$trace_out/jobfile-j$jobs.jsonl" \
        > "$trace_out/jobfile-j$jobs.stdout" 2> /dev/null
done
cmp "$trace_out/jobfile-j1.jsonl" "$trace_out/jobfile-j4.jsonl"
cmp "$trace_out/jobfile-j1.stdout" "$trace_out/jobfile-j4.stdout"
# Kill at a record boundary (keep the header + 2 records) and resume
# at --jobs 4: the completed journal, the merged CSV and stdout must
# be byte-identical to the uninterrupted serial run (diagnostics such
# as the resume notice go to stderr).
head -n 3 "$trace_out/j1.jsonl" > "$trace_out/partial.jsonl"
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 4 --resume "$trace_out/partial.jsonl" \
    --out "$trace_out/res.csv" > "$trace_out/res.stdout"
cmp "$trace_out/partial.jsonl" "$trace_out/j1.jsonl"
cmp "$trace_out/res.csv" "$trace_out/ref.csv"
cmp "$trace_out/res.stdout" "$trace_out/ref.stdout"
# A watchdog-tripped run retries, quarantines, reports the damage on
# stderr, and exits non-zero instead of wedging the whole batch.
if "$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 4 --watchdog-max-events 1 --retries 1 \
    > /dev/null 2> "$trace_out/wd.log"; then
    echo "resume: watchdog-tripped run unexpectedly succeeded" >&2
    exit 1
fi
grep -q 'DEGRADED RUN' "$trace_out/wd.log"
grep -q 'quarantined' "$trace_out/wd.log"

echo "== store: incremental sweeps through the result store =="
# A cold run populates the store; the warm rerun must simulate
# nothing (100% hit rate) and still emit a byte-identical CSV at a
# different --jobs count. Store stats go to stderr so the data
# artifacts stay byte-comparable.
store_dir="$trace_out/store"
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 1 --store "$store_dir" \
    --out "$trace_out/cold.csv" > /dev/null 2> /dev/null
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 4 --store "$store_dir" \
    --out "$trace_out/warm.csv" > /dev/null 2> "$trace_out/warm.log"
cmp "$trace_out/cold.csv" "$trace_out/warm.csv"
grep -q 'hit_rate.*+100\.00%' "$trace_out/warm.log"
# A store-less run of the same grid must also match: attaching the
# store can never change the science.
cmp "$trace_out/cold.csv" "$trace_out/ref.csv"
# store stats / verify on the populated store.
"$build"/tools/uvmasync store stats --store "$store_dir" \
    | grep -q 'last_run_hit_rate'
"$build"/tools/uvmasync store verify --store "$store_dir" > /dev/null
# Eviction smoke: eviction triggers on insert, so run a workload the
# store has not seen under a one-byte budget — its inserts must evict
# the saxpy segments, and the run still completes correctly.
"$build"/tools/uvmasync run --workload gemv --size tiny --runs 2 \
    --jobs 1 --out "$trace_out/gemv_ref.csv" > /dev/null
"$build"/tools/uvmasync run --workload gemv --size tiny --runs 2 \
    --jobs 1 --store "$store_dir" --store-max-bytes 1 \
    --out "$trace_out/evict.csv" > /dev/null 2> "$trace_out/evict.log"
cmp "$trace_out/evict.csv" "$trace_out/gemv_ref.csv"
grep -Eq 'evicted_segments *\| *[1-9]' "$trace_out/evict.log"

echo "== fsck: offline verification + repair of durable state =="
# Clean artifacts pass (exit 0); a deliberately damaged copy of each
# layer fails (exit 1); --repair fixes everything in place (exit 0,
# quarantining rather than deleting); and the repaired artifacts keep
# working — the journal resumes and the store warms a rerun to the
# byte-identical CSV.
fsck_dir="$trace_out/fsck"
mkdir -p "$fsck_dir/state/batches"
"$build"/tools/uvmasync fsck "$trace_out/j1.jsonl" > /dev/null
# A fresh store to damage (the eviction smoke above emptied
# $store_dir of its saxpy segments).
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 1 --store "$fsck_dir/store" \
    --out "$fsck_dir/cold.csv" > /dev/null 2> /dev/null
"$build"/tools/uvmasync fsck "$fsck_dir/store" > /dev/null
# Damage all three layers. The journal first gets one changed hex
# digit inside its first record's first `runs` value: on its own,
# fsck must report it (exit 1) and --resume must refuse it rather
# than restore a wrong number. Then tear the journal mid-record, flip
# a byte inside the last store record, and orphan a daemon batch
# journal that acks no payload.
cp "$trace_out/j1.jsonl" "$fsck_dir/digit.jsonl"
digit=$(sed -n -E '2s/.*"runs":\[\["0x1\.([0-9a-f]).*/\1/p' \
    "$fsck_dir/digit.jsonl")
if [ "$digit" = 0 ]; then swap=1; else swap=0; fi
sed -i -E "2s/(\"runs\":\[\[\"0x1\.)$digit/\1$swap/" \
    "$fsck_dir/digit.jsonl"
if cmp -s "$fsck_dir/digit.jsonl" "$trace_out/j1.jsonl"; then
    echo "check.sh: the runs digit was not changed" >&2
    exit 1
fi
fsck_rc=0
"$build"/tools/uvmasync fsck "$fsck_dir/digit.jsonl" > /dev/null 2>&1 \
    || fsck_rc=$?
[ "$fsck_rc" = 1 ]
if "$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --resume "$fsck_dir/digit.jsonl" --out "$fsck_dir/digit.csv" \
    > /dev/null 2>&1; then
    echo "check.sh: --resume restored a changed runs digit" >&2
    exit 1
fi
head -c -7 "$fsck_dir/digit.jsonl" > "$fsck_dir/run.jsonl"
shard_file=$(find "$fsck_dir/store/shards" -type f | sort | head -n 1)
shard_size=$(wc -c < "$shard_file")
printf 'Z' | dd of="$shard_file" bs=1 seek=$((shard_size - 2)) \
    conv=notrunc 2> /dev/null
printf '{"journal":"uvmasync"}\n' \
    > "$fsck_dir/state/batches/00000000000000aa.jsonl"
fsck_rc=0
"$build"/tools/uvmasync fsck "$fsck_dir/run.jsonl" "$fsck_dir/store" \
    "$fsck_dir/state" > /dev/null 2>&1 || fsck_rc=$?
[ "$fsck_rc" = 1 ]
"$build"/tools/uvmasync fsck --repair "$fsck_dir/run.jsonl" \
    "$fsck_dir/store" "$fsck_dir/state" \
    > "$fsck_dir/repair.log" 2>&1
"$build"/tools/uvmasync fsck "$fsck_dir/run.jsonl" "$fsck_dir/store" \
    "$fsck_dir/state" > /dev/null
# Unrecoverable bytes are quarantined, never deleted.
[ -d "$fsck_dir/store/quarantine" ]
[ -d "$fsck_dir/state/quarantine" ]
# The repaired journal resumes to byte-identical artifacts...
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 4 --resume "$fsck_dir/run.jsonl" \
    --out "$fsck_dir/res.csv" > /dev/null
cmp "$fsck_dir/run.jsonl" "$trace_out/j1.jsonl"
cmp "$fsck_dir/res.csv" "$trace_out/ref.csv"
# ...and a warm rerun through the repaired store (one record was
# quarantined, so it re-simulates exactly that point) still matches.
"$build"/tools/uvmasync run --workload saxpy --size tiny --runs 2 \
    --jobs 1 --store "$fsck_dir/store" \
    --out "$fsck_dir/warm.csv" > /dev/null 2> /dev/null
cmp "$fsck_dir/warm.csv" "$trace_out/ref.csv"

if [ "$run_serve" = 1 ]; then
    echo "== serve: campaign daemon vs batch CLI =="
    # The daemon's streamed results must be byte-identical to the
    # record payloads of the batch CLI's journal for the same batch — with three clients
    # racing, across a kill -9 plus journal truncation (simulated
    # mid-write crash), and on a warm resubmit served from the
    # shared store.
    serve_dir="$trace_out/serve"
    mkdir -p "$serve_dir"
    # The stream carries the journal's record payloads: every line
    # after the header, without its checksum frame.
    tail -n +2 "$trace_out/j1.jsonl" \
        | sed -E 's/^\{"crc":"[0-9a-f]{16}","rec":(.*)\}$/\1/' \
        > "$serve_dir/expected.jsonl"
    "$build"/tools/uvmasync-serve --socket "$serve_dir/sock" \
        --state "$serve_dir/state" --jobs 4 \
        --store "$serve_dir/store" > "$serve_dir/daemon.out" \
        2> "$serve_dir/daemon.log" &
    serve_pid=$!
    for _ in $(seq 100); do
        [ -S "$serve_dir/sock" ] && break
        sleep 0.1
    done
    [ -S "$serve_dir/sock" ]
    # Three concurrent clients submit the same batch; each stream
    # must match the CLI reference byte for byte.
    client_pids=()
    for i in 1 2 3; do
        "$build"/tools/uvmasync client run --socket "$serve_dir/sock" \
            --workload saxpy --size tiny --runs 2 \
            > "$serve_dir/stream$i.jsonl" \
            2> "$serve_dir/client$i.log" &
        client_pids+=($!)
    done
    for pid in "${client_pids[@]}"; do wait "$pid"; done
    for i in 1 2 3; do
        cmp "$serve_dir/stream$i.jsonl" "$serve_dir/expected.jsonl"
    done
    # Kill -9 the daemon and tear the first batch's journal back to
    # the header plus two records (a crash mid-campaign), and leave
    # the second batch's journal a torn header (a crash between the
    # journal's open and its header sync). fsck calls that a note,
    # and the restarted daemon must resume the first, rewrite the
    # second, and stream the identical bytes for both.
    kill -9 "$serve_pid"
    wait "$serve_pid" 2> /dev/null || true
    # kill -9 leaves the old socket file behind; remove it so the
    # wait loop below really waits for the NEW daemon's bind rather
    # than matching the stale file instantly.
    rm -f "$serve_dir/sock"
    head -n 3 "$serve_dir/state/batches/0000000000000001.jsonl" \
        > "$serve_dir/torn.jsonl"
    mv "$serve_dir/torn.jsonl" \
        "$serve_dir/state/batches/0000000000000001.jsonl"
    printf '{"crc":"00' \
        > "$serve_dir/state/batches/0000000000000002.jsonl"
    "$build"/tools/uvmasync fsck "$serve_dir/state" \
        > "$serve_dir/fsck.out" 2> "$serve_dir/fsck.log"
    "$build"/tools/uvmasync-serve --socket "$serve_dir/sock" \
        --state "$serve_dir/state" --jobs 4 \
        --store "$serve_dir/store" >> "$serve_dir/daemon.out" \
        2>> "$serve_dir/daemon.log" &
    serve_pid=$!
    for _ in $(seq 100); do
        [ -S "$serve_dir/sock" ] && break
        sleep 0.1
    done
    grep -Eq '[1-9] batch\(es\) recovered' "$serve_dir/daemon.log"
    "$build"/tools/uvmasync client stream --socket "$serve_dir/sock" \
        --handle 0000000000000001 > "$serve_dir/resumed.jsonl" \
        2> /dev/null
    cmp "$serve_dir/resumed.jsonl" "$serve_dir/expected.jsonl"
    "$build"/tools/uvmasync client stream --socket "$serve_dir/sock" \
        --handle 0000000000000002 > "$serve_dir/rewritten.jsonl" \
        2> /dev/null
    cmp "$serve_dir/rewritten.jsonl" "$serve_dir/expected.jsonl"
    # Warm resubmit: every point of a fresh identical batch comes
    # from the shared store, and the stream still matches.
    "$build"/tools/uvmasync client run --socket "$serve_dir/sock" \
        --workload saxpy --size tiny --runs 2 \
        > "$serve_dir/warm.jsonl" 2> /dev/null
    cmp "$serve_dir/warm.jsonl" "$serve_dir/expected.jsonl"
    "$build"/tools/uvmasync client stats --socket "$serve_dir/sock" \
        | grep -Eq 'store\.hits = [1-9]'
    "$build"/tools/uvmasync client shutdown \
        --socket "$serve_dir/sock"
    wait "$serve_pid"
fi
