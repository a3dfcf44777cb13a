#!/usr/bin/env bash
# Source-level determinism lint.
#
# The simulator promises bit-identical results for a given seed at any
# --jobs count; that promise dies the day somebody reaches for a
# wall-clock or an unseeded RNG inside the model, or iterates an
# unordered container straight into a report. This gate bans those
# constructions in simulation code:
#
#   - rand()/srand()/std::random_device: unseeded randomness (the
#     deterministic Rng in common/rng.hh is the only legal source)
#   - system_clock/high_resolution_clock: wall-clock time in any sim
#     path; steady_clock is allowed ONLY in the allowlisted host-side
#     measurement code (parallel_runner.cc wall-time metrics)
#   - range-for over unordered_map/unordered_set in files that write
#     CSV or report output (iteration order leaks into artifacts)
#   - default- or literal-seeded Rng construction in src/inject: every
#     injector stream must be derived from the plan salt, or injected
#     runs stop replaying identically across --jobs counts
#   - raw file I/O (stdio, POSIX file calls, fstreams) in src/journal,
#     src/store or src/serve: durable state goes through the IoEnv
#     seam in src/io, or the fault enumerator and fsck cannot see it
#
# The checks are token-aware: comments and string literals are blanked
# (line numbers preserved) before any pattern runs, so prose saying
# "never call rand() here" or a log string naming system_clock cannot
# trip the gate. `--self-test` runs the rules against the fixtures in
# tests/fixtures/determinism/ (one file every rule must flag, one
# where every banned token hides in comments/strings and the lint
# must stay silent).
#
# Exit 0 when clean, 1 with findings. Run from anywhere.

set -u
cd "$(dirname "$0")/.."

fail=0
note() { printf '%s\n' "$*"; }

# --- the rule patterns ----------------------------------------------
# \b keeps e.g. "srand48_r" or identifiers like "operand(" matching.
RE_RAND='\b(rand|srand)[[:space:]]*\(|std::random_device'
RE_WALLCLOCK='system_clock|high_resolution_clock'
RE_STEADY='steady_clock'
RE_INJECT_RNG='Rng[[:space:]]*\([[:space:]]*\)|Rng\{[[:space:]]*\}|Rng[[:space:]]*\([[:space:]]*[0-9]'
RE_JOURNAL_CLOCK='std::chrono|clock_gettime|gettimeofday|\bstrftime[[:space:]]*\(|\blocaltime(_r)?[[:space:]]*\(|\bgmtime(_r)?[[:space:]]*\(|std::time[[:space:]]*\(|[^a-zA-Z_]time[[:space:]]*\([[:space:]]*(NULL|nullptr|0|&)'
RE_UNORDERED_ITER='for[[:space:]]*\(.*:[[:space:]]*[^)]*unordered_(map|set)'
RE_OUTPUT_TOKENS='CsvWriter|writeRow|TextTable|writeChromeTrace|writeTraceMetricsCsv'
# Raw file I/O in the durable-state directories. Four families:
# stdio/POSIX file calls by name; explicitly scoped ::open-style
# syscalls (the unscoped names are too common to ban — ResultStore
# has its own open(), AdmissionQueue its own remove()); fstream
# types; and the <cstdio> std::remove/std::rename file APIs. The
# std::remove file form is distinguished from the <algorithm>
# iterator form by its single const-char* argument: a .c_str() call
# or a lone (blanked) string literal, never an iterator pair.
RE_RAW_IO='\b(fopen|freopen|fdopen|fwrite|fread|fgets|fputs|fscanf|fclose|fflush|fseeko?|ftello?|fsync|fdatasync|creat|mkdir|rmdir|unlink|opendir|readdir|closedir|truncate|ftruncate)[[:space:]]*\(|(^|[^A-Za-z0-9_])::(open|creat|stat|lstat|rename|remove|unlink|mkdir|opendir|truncate|ftruncate|fsync|fdatasync)[[:space:]]*\(|\b(fstream|ofstream|ifstream)\b|std::rename[[:space:]]*\(|std::remove[[:space:]]*\([^,;)]*c_str|std::remove[[:space:]]*\([[:space:]]*\)'

# Blank comments and string/char literals while preserving the line
# structure, so grep line numbers still point at the real source.
# Block comments span lines; string state resets per line (a C++
# string literal cannot).
strip_src() {
    awk '
    {
        line = $0; out = ""; i = 1; n = length(line); instr = 0; q = ""
        while (i <= n) {
            c = substr(line, i, 1)
            d = (i < n) ? substr(line, i + 1, 1) : ""
            if (inblock) {
                if (c == "*" && d == "/") { inblock = 0; i += 2 }
                else i++
                out = out " "
                continue
            }
            if (instr) {
                if (c == "\\") { i += 2; out = out " " }
                else if (c == q) { instr = 0; i++; out = out " " }
                else { i++; out = out " " }
                continue
            }
            if (c == "/" && d == "/") break
            if (c == "/" && d == "*") {
                inblock = 1; i += 2; out = out "  "; continue
            }
            if (c == "\"" || c == "\x27") {
                instr = 1; q = c; i++; out = out " "; continue
            }
            out = out c; i++
        }
        print out
    }' "$1"
}

# scan PATTERN FILE... -> "file:line:stripped-line" per match.
scan() {
    local pattern=$1 f
    shift
    for f in "$@"; do
        strip_src "$f" | grep -nE "$pattern" | sed "s|^|$f:|"
    done
    true
}

# --- self-test ------------------------------------------------------
if [ "${1:-}" = "--self-test" ]; then
    bad=tests/fixtures/determinism/lint_bad.cc
    clean=tests/fixtures/determinism/lint_clean.cc
    st_fail=0
    must_hit() {
        if [ -z "$(scan "$2" "$3")" ]; then
            note "determinism lint self-test FAIL: rule '$1' did not flag $3"
            st_fail=1
        fi
    }
    must_miss() {
        local hits
        hits=$(scan "$2" "$3")
        if [ -n "$hits" ]; then
            note "determinism lint self-test FAIL: rule '$1' false-positived on $3:"
            note "$hits"
            st_fail=1
        fi
    }
    must_hit "unseeded randomness" "$RE_RAND" "$bad"
    must_hit "wall-clock" "$RE_WALLCLOCK" "$bad"
    must_hit "steady_clock" "$RE_STEADY" "$bad"
    must_hit "inject rng" "$RE_INJECT_RNG" "$bad"
    must_hit "journal clock" "$RE_JOURNAL_CLOCK" "$bad"
    must_hit "unordered iteration" "$RE_UNORDERED_ITER" "$bad"
    must_hit "raw file I/O" "$RE_RAW_IO" "$bad"
    must_miss "unseeded randomness" "$RE_RAND" "$clean"
    must_miss "wall-clock" "$RE_WALLCLOCK" "$clean"
    must_miss "steady_clock" "$RE_STEADY" "$clean"
    must_miss "inject rng" "$RE_INJECT_RNG" "$clean"
    must_miss "journal clock" "$RE_JOURNAL_CLOCK" "$clean"
    must_miss "unordered iteration" "$RE_UNORDERED_ITER" "$clean"
    must_miss "raw file I/O" "$RE_RAW_IO" "$clean"
    if [ "$st_fail" -eq 0 ]; then
        note "determinism lint self-test: ok"
    fi
    exit "$st_fail"
fi

# Simulation sources: everything under src/ and tools/. Sorted so
# findings print in a stable order.
SIM_FILES=$(find src tools \( -name '*.cc' -o -name '*.hh' \) | sort)

# --- unseeded randomness --------------------------------------------
hits=$(scan "$RE_RAND" $SIM_FILES)
if [ -n "$hits" ]; then
    note "determinism lint: unseeded randomness (use common/rng.hh):"
    note "$hits"
    fail=1
fi

# --- wall-clock time ------------------------------------------------
hits=$(scan "$RE_WALLCLOCK" $SIM_FILES)
if [ -n "$hits" ]; then
    note "determinism lint: wall-clock source in simulation code:"
    note "$hits"
    fail=1
fi

# steady_clock is a monotonic duration source, acceptable only for
# host-side performance metrics that never feed simulation results:
# only the parallel runner's wall-time metrics.
ALLOW_STEADY='src/core/parallel_runner.cc'
hits=$(scan "$RE_STEADY" $SIM_FILES)
for allowed in $ALLOW_STEADY; do
    hits=$(printf '%s\n' "$hits" | grep -v -F "$allowed" || true)
done
if [ -n "$hits" ]; then
    note "determinism lint: steady_clock outside the allowlist" \
         "($ALLOW_STEADY):"
    note "$hits"
    fail=1
fi

# --- fault injection: salt-derived RNG streams only -----------------
# The injection layer's whole replay guarantee rests on every stream
# being a pure function of the plan salt (Injector::streamRng). A
# default-constructed or literal-seeded Rng in src/inject would pass
# every functional test and still break --jobs replay identity.
INJECT_FILES=$(find src/inject \( -name '*.cc' -o -name '*.hh' \) | sort)
hits=$(scan "$RE_INJECT_RNG" $INJECT_FILES)
if [ -n "$hits" ]; then
    note "determinism lint: src/inject RNG stream not derived from" \
         "the plan salt (use Injector::streamRng):"
    note "$hits"
    fail=1
fi

# --- journal: no wall-clock reads -----------------------------------
# The run journal is a byte-deterministic artifact (same grid + seed
# => same bytes at any --jobs count, across interrupt/resume). A
# timestamp — any wall-clock read — in src/journal would silently
# break the cmp-based resume gates in check.sh and the golden tests.
JOURNAL_FILES=$(find src/journal \( -name '*.cc' -o -name '*.hh' \) | sort)
hits=$(scan "$RE_JOURNAL_CLOCK" $JOURNAL_FILES)
if [ -n "$hits" ]; then
    note "determinism lint: wall-clock read in src/journal (the" \
         "journal must stay byte-deterministic):"
    note "$hits"
    fail=1
fi

# --- result store: no wall-clock reads ------------------------------
# The result store's eviction order runs on a logical LRU clock
# persisted in meta.json, and its segments must be byte-identical
# across cold/warm runs and --jobs counts. Any wall-clock read in
# src/store would leak time into the artifact and break the
# cold-vs-warm cmp gates, so the journal's clock ban applies here too.
STORE_FILES=$(find src/store \( -name '*.cc' -o -name '*.hh' \) | sort)
hits=$(scan "$RE_JOURNAL_CLOCK" $STORE_FILES)
if [ -n "$hits" ]; then
    note "determinism lint: wall-clock read in src/store (eviction" \
         "must use the logical LRU clock, never real time):"
    note "$hits"
    fail=1
fi

# --- campaign daemon: no wall-clock reads ---------------------------
# The daemon's result streams are journal record lines and must stay
# byte-identical to the batch CLI's journal for the same batch —
# across restarts, job counts and client interleavings. A wall-clock
# read anywhere in src/serve (timeouts, timestamps, backoff) would
# leak time into scheduling or the stream and break the cmp-based
# serve gates; the daemon blocks on poll()/condition variables with
# no deadline instead.
SERVE_FILES=$(find src/serve \( -name '*.cc' -o -name '*.hh' \) | sort)
hits=$(scan "$RE_JOURNAL_CLOCK" $SERVE_FILES)
if [ -n "$hits" ]; then
    note "determinism lint: wall-clock read in src/serve (the" \
         "daemon's streams must stay byte-deterministic; block on" \
         "poll/condition variables, never on deadlines):"
    note "$hits"
    fail=1
fi

# --- durable state: every file op through the IoEnv seam ------------
# src/journal, src/store and src/serve route all durable-state I/O
# through common IoEnv (src/io). That seam is what lets the crash
# enumerator in tests/test_io_fault.cc fail every single operation,
# and what keeps `uvmasync fsck` an exhaustive model of the on-disk
# format: raw stdio/POSIX file calls or fstreams here would open a
# side channel the fault layer cannot inject into. Socket-fd traffic
# (::read/::write/::close on connections in server.cc/wire.cc) is
# not file I/O and stays legal. The one raw *file* call allowed is
# server.cc's ::unlink of the unix-socket endpoint — a kernel
# rendezvous point, not durable state, gone with the process anyway.
ALLOW_RAW_IO='^src/serve/server\.cc:[0-9]+:.*::unlink'
DURABLE_FILES="$JOURNAL_FILES $STORE_FILES $SERVE_FILES"
hits=$(scan "$RE_RAW_IO" $DURABLE_FILES)
hits=$(printf '%s\n' "$hits" | grep -vE "$ALLOW_RAW_IO" || true)
if [ -n "$hits" ]; then
    note "determinism lint: raw file I/O bypasses the IoEnv seam" \
         "(route it through src/io so faults inject and fsck sees it):"
    note "$hits"
    fail=1
fi

# --- unordered iteration feeding output -----------------------------
# Files that produce user-visible artifacts must not range-for over
# unordered containers; the iteration order is ABI/hash-seed soup.
# Output-producing files are detected on stripped sources too, so a
# doc comment mentioning CsvWriter does not pull a file into scope.
for f in $SIM_FILES; do
    case "$f" in
      *.cc) ;;
      *) continue ;;
    esac
    if ! strip_src "$f" | grep -qE "$RE_OUTPUT_TOKENS"; then
        continue
    fi
    hits=$(scan "$RE_UNORDERED_ITER" "$f")
    if [ -n "$hits" ]; then
        note "determinism lint: $f iterates an unordered container" \
             "while producing report/CSV output:"
        note "$hits"
        fail=1
    fi
done

if [ "$fail" -eq 0 ]; then
    note "determinism lint: clean"
fi
exit "$fail"
