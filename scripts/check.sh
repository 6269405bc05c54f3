#!/usr/bin/env bash
# Sanitizer gate: builds the whole tree with ASan+UBSan, fails on any
# compiler warning in the build log, and runs ctest.
# The obs subsystem is the reason this exists — its registry/tracer mutexes
# and counter atomics should stay race- and UB-clean — but the gate covers
# every target. Usage:
#   scripts/check.sh                # address,undefined (default)
#   scripts/check.sh --tsan         # ThreadSanitizer over the storage layer:
#                                   # lazy index construction races with
#                                   # concurrent Probe()s, so the chase
#                                   # differential + instance suites run
#                                   # under -fsanitize=thread (build-tsan/)
#   MM2_SANITIZE=thread scripts/check.sh   # TSan over the full suite
#   BUILD_DIR=/tmp/san scripts/check.sh
#   MM2_BENCH_SMOKE=1 scripts/check.sh   # also run the bench-regression
#                                        # harness end-to-end at tiny sizes
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS="${MM2_SANITIZE:-address,undefined}"
BUILD_DIR="${BUILD_DIR:-build-sanitize}"
TEST_FILTER=""

if [[ "${1:-}" == "--tsan" ]]; then
  SANITIZERS="thread"
  BUILD_DIR="${BUILD_DIR_TSAN:-build-tsan}"
  # The suites exercising RelationInstance's index/delta machinery
  # (concurrent-probe test, production-vs-reference differential sweep)
  # plus the one parallel executor left: the work-stealing pool itself and
  # the sharded parallel hash join that runs on it. The chase is serial, so
  # its sweeps here guard the shared state it touches rather than a fan-out.
  # InternPool / ValueIntern cover the sharded string pool: racing Intern()
  # calls and lock-free Get()s from freshly published chunks.
  # EventLog/CancelToken/Watchdog join the filter: the event log's ring
  # mutex + enabled/emitted atomics and the cancel token's relaxed stop
  # flag are exactly the kind of cross-thread state TSan is here for.
  # ChaseStratifiedDiffProperty/ClosureStratifiedDiffProperty/Analysis/
  # WatchdogForesight cover the stratified scheduler + analysis attach —
  # the scheduler state is per-run but its metric mirroring and foresight
  # events ride the shared registry/event-log mutexes.
  # Segment/RelationSegment/ChaseSegmentedDiffProperty/
  # ClosureSegmentedDiffProperty cover the columnar segment layer: the
  # const PrepareSegments reseal under index_mu_ next to the reader-locked
  # probe path. SegmentPolicyTest pins the fixed tier policy those run
  # lists follow.
  # EqualsUpToNulls/TombstoneDeltaView/MaintainDRed/IncrementalSweep cover
  # the incremental-exchange layer: tombstone-aware delta views slicing
  # runs the (const, mutex-guarded) reseal path also mutates, and session
  # maintenance driving Erase/Insert churn against the lazily built
  # log-position map under the same index_mu_.
  # EgdReferenceDiffProperty/EgdBatchTest/SkolemCollisionTest cover the
  # batched egd pass: the reference sweep (tests/reference_chase.h), the
  # batch edge cases, and the Skolem-memo collision cases that drive its
  # substitution through session maintenance.
  TEST_FILTER="ChaseDiffProperty|ClosureDiffProperty|ChaseSerializeDiffProperty|RelationInstance|InstanceTest|InternPool|ValueIntern|ThreadPool|ResolveThreadCount|ChaseStratifiedDiffProperty|ClosureStratifiedDiffProperty|AnalysisTest|WatchdogForesight|ParallelHashJoin|EventLog|CancelToken|Watchdog|SegmentInserterTest|SegmentMergeTest|SegmentProbeTest|RelationSegmentTest|InstanceSegmentTest|ChaseSegmentedDiffProperty|ClosureSegmentedDiffProperty|EqualsUpToNulls|TombstoneDeltaView|MaintainDRed|IncrementalSweep|EgdReferenceDiffProperty|EgdBatchTest|SkolemCollisionTest|SegmentPolicyTest"
fi

cmake -B "$BUILD_DIR" -S . \
  -DMM2_SANITIZE="$SANITIZERS" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Warning gate: the tree builds warning-free. The build log is kept, and
# any compiler warning in it fails the check, including one reported from
# a system header while compiling a file under src/ or tests/. Only what
# this run compiled is in the log, so a fresh BUILD_DIR checks every file.
BUILD_LOG="$BUILD_DIR/build.log"
cmake --build "$BUILD_DIR" -j"$(nproc)" 2>&1 | tee "$BUILD_LOG"
if grep -n "warning:" "$BUILD_LOG"; then
  echo "error: the build emitted compiler warnings (see $BUILD_LOG)" >&2
  exit 1
fi
if [[ -n "$TEST_FILTER" ]]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
    -R "$TEST_FILTER"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
fi
echo "sanitizer check ($SANITIZERS) passed"

# Structured-log smoke gate (default path only): drive the demo session
# through the shell under MM2_LOG=json and validate that every event line
# on stderr is standalone JSON — the contract downstream log collectors
# depend on. Runs on the sanitizer build, so it also shakes the log path.
if [[ -z "$TEST_FILTER" && -x "$BUILD_DIR/examples/mm2_shell" ]]; then
  LOG_TMP="$(mktemp)"
  trap 'rm -f "$LOG_TMP"' EXIT
  MM2_LOG=json "$BUILD_DIR/examples/mm2_shell" \
    < examples/data/demo_session.mm2 > /dev/null 2> "$LOG_TMP"
  python3 - "$LOG_TMP" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit("error: MM2_LOG=json produced no event lines")
for i, line in enumerate(lines, 1):
    try:
        event = json.loads(line)
    except json.JSONDecodeError as err:
        sys.exit(f"error: stderr line {i} is not JSON ({err}): {line!r}")
    for key in ("seq", "t_us", "level", "event"):
        if key not in event:
            sys.exit(f"error: event line {i} lacks '{key}': {line!r}")
print(f"structured-log smoke gate passed ({len(lines)} JSON event lines)")
EOF
fi

# Transcript gates (default path only): drive two recorded shell sessions
# and diff their stdout against the golden transcripts in tests/golden/.
# exchange_session: load, exchange, show the materialized instance and
# answer a query through the mapping. incremental_session: exchange, queue
# a delta (`apply`), `maintain` it, re-chase the post-delta source from
# scratch and `eqcheck` the two — the maintained target must be equal up
# to null renaming. stats/explain are left out: their numbers vary by run.
# Regenerate a transcript only for an intended output change:
#   build/examples/mm2_shell < tests/golden/X.mm2 > tests/golden/X.out
if [[ -z "$TEST_FILTER" && -x "$BUILD_DIR/examples/mm2_shell" ]]; then
  GOLD_OUT="$(mktemp)"
  trap 'rm -f "${LOG_TMP:-}" "$GOLD_OUT"' EXIT
  for session in exchange_session incremental_session; do
    "$BUILD_DIR/examples/mm2_shell" < "tests/golden/$session.mm2" \
      > "$GOLD_OUT" 2> /dev/null
    if ! diff -u "tests/golden/$session.out" "$GOLD_OUT"; then
      echo "error: $session output diverged from tests/golden/$session.out" >&2
      exit 1
    fi
  done
  # GOLD_OUT now holds the incremental session's output.
  if ! grep -q "eqcheck Dprime Rechase: equal" "$GOLD_OUT"; then
    echo "error: maintained target diverged from the from-scratch re-chase" >&2
    exit 1
  fi
  rm -f "$GOLD_OUT"
  echo "transcript gates passed (exchange and incremental sessions match tests/golden/; maintain ≡ re-chase)"
fi

# DOT-validity gate (default path only): `explain mapping --dot` over the
# demo mapping must emit a syntactically sound graphviz digraph. Balanced
# braces + edge/node shape are checked in python; when graphviz happens to
# be installed, `dot -Tcanon` parses it for real.
if [[ -z "$TEST_FILTER" && -x "$BUILD_DIR/examples/mm2_shell" ]]; then
  DOT_TMP="$(mktemp)"
  trap 'rm -f "${LOG_TMP:-}" "$DOT_TMP"' EXIT
  {
    echo "load-schema examples/data/school.schema"
    echo "load-schema examples/data/school_v2.schema"
    echo "load-mapping examples/data/split.mapping"
    echo "explain mapping mapSSp --dot"
    echo "quit"
  } | "$BUILD_DIR/examples/mm2_shell" 2> /dev/null \
    | sed 's/^mm2> //' \
    | sed -n '/^digraph mapping_analysis {$/,/^}$/p' > "$DOT_TMP"
  python3 - "$DOT_TMP" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
if not text.startswith("digraph mapping_analysis {"):
    sys.exit("error: explain mapping --dot produced no digraph")
depth = 0
for i, ch in enumerate(text):
    if ch == "{": depth += 1
    elif ch == "}":
        depth -= 1
        if depth < 0:
            sys.exit(f"error: unbalanced '}}' at offset {i}")
if depth != 0:
    sys.exit(f"error: {depth} unclosed braces in DOT output")
nodes = re.findall(r'^\s*[rp]\d+ \[', text, re.M)
edges = re.findall(r'^\s*[rp]\d+ -> [rp]\d+', text, re.M)
if not nodes:
    sys.exit("error: DOT output declares no nodes")
print(f"dot gate passed ({len(nodes)} nodes, {len(edges)} edges)")
EOF
  if command -v dot > /dev/null 2>&1; then
    dot -Tcanon "$DOT_TMP" > /dev/null
    echo "dot gate: graphviz parse also passed"
  fi
fi

# Opt-in bench smoke: exercises bench_all.sh + bench_compare.py end to end
# at tiny sizes — a self-compare must pass, and an inflated copy must fail,
# proving the regression gate actually gates.
if [[ "${MM2_BENCH_SMOKE:-0}" == "1" ]]; then
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  MM2_BENCH_SMOKE=1 MM2_BENCH_OUT_DIR="$SMOKE_DIR" \
    scripts/bench_all.sh smoke "$BUILD_DIR"
  python3 scripts/bench_compare.py \
    "$SMOKE_DIR/BENCH_smoke.json" "$SMOKE_DIR/BENCH_smoke.json"
  python3 - "$SMOKE_DIR" <<'EOF'
import json, sys
smoke_dir = sys.argv[1]
doc = json.load(open(f"{smoke_dir}/BENCH_smoke.json"))
for r in doc["records"]:
    if r["unit"] == "us":
        r["value"] *= 10
json.dump(doc, open(f"{smoke_dir}/BENCH_inflated.json", "w"))
EOF
  if python3 scripts/bench_compare.py \
      "$SMOKE_DIR/BENCH_smoke.json" "$SMOKE_DIR/BENCH_inflated.json"; then
    echo "error: bench_compare.py missed a 10x synthetic regression" >&2
    exit 1
  fi
  echo "bench smoke gate passed (self-compare ok, 10x inflation caught)"
fi
