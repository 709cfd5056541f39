#!/usr/bin/env bash
# End-to-end smoke of the live ingest subsystem: starts the example
# server on loopback, POSTs an out-of-order detection stream in several
# batches, checks the ids served mid-stream and the objects the builder
# has retired, flushes, checks the
# builder's cleaning counters in /stats, queries back over
# the live segments, and diffs every
# answer byte-for-byte against `live_server batch` — the batch pipeline
# run over the same detection multiset — and checks that malformed
# queries and a truncated detection batch answer 400 and an unknown path
# 404, each with a JSON error body. The truncated batch is posted before
# the flush, so the clean diffs also prove it ingested nothing. Also
# saves the /stats document (live_smoke_stats.json in the work dir) for
# CI to archive.
#
# Usage:
#   scripts/live_smoke.sh [build_dir] [work_dir]
#
# Environment overrides:
#   SITM_LIVE_SERVER   path to the live_server binary
#                      (default: <build_dir>/examples/live_server)
set -euo pipefail

build_dir="${1:-build}"
work_dir="${2:-$(mktemp -d)}"
server_bin="${SITM_LIVE_SERVER:-$build_dir/examples/live_server}"

if [ ! -x "$server_bin" ]; then
  echo "live_smoke: server binary not found: $server_bin" >&2
  echo "live_smoke: build first: cmake --build $build_dir --target live_server" >&2
  exit 1
fi
mkdir -p "$work_dir"
echo "live_smoke: server=$server_bin work_dir=$work_dir"

# Three ingest batches, out of order within and across batches but
# within the 600 s default lateness (worst regression here: 1750 ->
# 1200 = 550 s). Object 1 revisits cell 10; object 3 arrives as a
# string-timestamp detection ("1970-01-01 00:40:00" = epoch 2400). A
# fourth, much later detection moves the watermark past the first three
# objects, so they finalize before the flush. Three detections exist to
# be cleaned: a zero-duration one (object 1, 1600-1600), one contained
# in an earlier detection (object 2, 1200-1240 inside 1000-1250), and
# an overlapping one (object 1, 1900-2100 over 1750-2000).
cat > "$work_dir/batch1.json" <<'EOF'
[{"object": 1, "cell": 10, "start": 1200, "end": 1400},
 {"object": 2, "cell": 11, "start": 1000, "end": 1250},
 {"object": 1, "cell": 12, "start": 1450, "end": 1700}]
EOF
cat > "$work_dir/batch2.json" <<'EOF'
{"detections": [
 {"object": 2, "cell": 12, "start": 1700, "end": 1900},
 {"object": 2, "cell": 11, "start": 1300, "end": 1650},
 {"object": 1, "cell": 10, "start": 1750, "end": 2000},
 {"object": 1, "cell": 12, "start": 1600, "end": 1600},
 {"object": 2, "cell": 11, "start": 1200, "end": 1240}]}
EOF
cat > "$work_dir/batch3.json" <<'EOF'
[{"object": 3, "cell": 10, "start": "1970-01-01 00:40:00",
  "end": "1970-01-01 00:45:00"},
 {"object": 2, "cell": 10, "start": 1950, "end": 2300},
 {"object": 1, "cell": 12, "start": 1900, "end": 2100}]
EOF
cat > "$work_dir/batch4.json" <<'EOF'
[{"object": 4, "cell": 11, "start": 20000, "end": 20100}]
EOF
# Cut off mid-detection: refused whole, and never fed to the oracle.
printf '%s' '[{"object": 5, "cell": 10, "start": 20050, "end": 20200},
 {"object": 5, "cell": 1' > "$work_dir/truncated.json"

# The batch oracle consumes the union of everything POSTed.
python3 - "$work_dir" <<'EOF'
import json, sys
work = sys.argv[1]
merged = []
for name in ("batch1.json", "batch2.json", "batch3.json", "batch4.json"):
    with open(f"{work}/{name}") as fh:
        doc = json.load(fh)
    merged.extend(doc["detections"] if isinstance(doc, dict) else doc)
with open(f"{work}/all.json", "w") as fh:
    json.dump(merged, fh)
EOF

"$server_bin" serve --dir "$work_dir/segments" > "$work_dir/server.out" &
server_pid=$!
cleanup() {
  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
}
trap cleanup EXIT

port=""
for _ in $(seq 1 50); do
  port="$(sed -n 's/^PORT=//p' "$work_dir/server.out" 2>/dev/null || true)"
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "live_smoke: server never printed PORT=" >&2
  exit 1
fi
base="http://127.0.0.1:$port"
echo "live_smoke: serving on $base"

post() {
  # curl -f would hide the body on 4xx; check the status code by hand.
  code="$(curl -s -o "$work_dir/last_response.json" -w '%{http_code}' \
               -X POST --data-binary @"$1" "$base$2")"
  if [ "$code" != "200" ]; then
    echo "live_smoke: POST $2 <- $1 failed ($code):" >&2
    cat "$work_dir/last_response.json" >&2
    exit 1
  fi
}

# Mid-stream, before the flush: the ids served over the segments and
# the unsealed tail must ascend with no gap, one per trajectory
# finalized so far.
check_mid_stream_ids() {
  curl -s "$base/query?projection=ids" > "$work_dir/mid_ids.json"
  curl -s "$base/stats" > "$work_dir/mid_stats.json"
  if ! python3 - "$work_dir/mid_ids.json" "$work_dir/mid_stats.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    ids = json.load(fh)["ids"]
with open(sys.argv[2]) as fh:
    finalized = json.load(fh)["builder"]["finalized"]
contiguous = all(b == a + 1 for a, b in zip(ids, ids[1:]))
print(f"live_smoke: mid-stream ids {ids}, finalized {finalized}")
sys.exit(0 if contiguous and len(ids) == finalized else 1)
EOF
  then
    echo "live_smoke: mid-stream ids are not one gapless run per finalized trajectory" >&2
    exit 1
  fi
}

# Expects the request (the curl arguments after $1 and $2) to answer
# status $1 with a JSON {"error": "..."} body; $2 labels it.
failed=0
expect_error() {
  local want="$1" label="$2" code
  shift 2
  # curl -f would hide the body on 4xx; check the status code by hand.
  code="$(curl -s -o "$work_dir/error_answer.json" -w '%{http_code}' "$@")"
  if [ "$code" = "$want" ] && python3 -c '
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
sys.exit(0 if isinstance(doc, dict) and isinstance(doc.get("error"), str) else 1)
' "$work_dir/error_answer.json" 2> /dev/null; then
    echo "live_smoke: $want    $label"
  else
    echo "live_smoke: WRONG ERROR $label ($code): $(cat "$work_dir/error_answer.json")" >&2
    failed=1
  fi
}

post "$work_dir/batch1.json" /detections
post "$work_dir/batch2.json" /detections
check_mid_stream_ids
post "$work_dir/batch3.json" /detections
post "$work_dir/batch4.json" /detections
check_mid_stream_ids
# Batch 4 moved the watermark (19400) a session gap past the traces of
# objects 1-3: flushed, with nothing buffered, they are retired, and
# only object 4 is still tracked.
if ! python3 - "$work_dir/mid_stats.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    builder = json.load(fh)["builder"]
got = (builder["open_objects"], builder["retired_objects"])
print(f"live_smoke: before the flush, (open_objects, retired_objects) = {got}")
sys.exit(0 if got == (1, 3) else 1)
EOF
then
  echo "live_smoke: expected open_objects 1 and retired_objects 3 before the flush" >&2
  exit 1
fi
expect_error 400 "POST /detections <- truncated.json" \
  -X POST --data-binary @"$work_dir/truncated.json" "$base/detections"
expect_error 404 "GET /nowhere" "$base/nowhere"
curl -s -X POST "$base/flush" > /dev/null
curl -s "$base/stats" > "$work_dir/live_smoke_stats.json"
echo "live_smoke: /stats ->"
cat "$work_dir/live_smoke_stats.json"

# The live path runs the batch build step, so its cleaning counters are
# the ones a batch build of the same stream reports. By hand, with the
# default builder options (no graph, 300 s merge gap):
#   zero_duration_dropped 1: object 1's 1600-1600.
#   contained_dropped     1: object 2's 1200-1240, inside 1000-1250.
#   overlaps_clipped      1: object 1's 1900-2100 starts before 1750-2000
#                            ends; it is clipped to start at 2001.
#   graph_inconsistent_dropped 0: the server has no graph.
#   merged_same_cell      1: object 2's cell 11 at 1300-1650 extends
#                            1000-1250 (a 50 s gap).
if ! python3 - "$work_dir/live_smoke_stats.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    cleaning = json.load(fh)["builder"]["cleaning"]
expected = {"zero_duration_dropped": 1, "contained_dropped": 1,
            "overlaps_clipped": 1, "graph_inconsistent_dropped": 0,
            "merged_same_cell": 1}
if cleaning != expected:
    print(f"live_smoke: cleaning {cleaning}, expected {expected}")
    sys.exit(1)
EOF
then
  echo "live_smoke: /stats builder.cleaning does not match the hand count" >&2
  exit 1
fi
echo "live_smoke: cleaning counters match"

# The watermark sweep visits only objects with work: each visit consumes
# a detection or flushes a trajectory, so the visit count is bounded by
# the records in plus the trajectories out.
if ! python3 - "$work_dir/live_smoke_stats.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    builder = json.load(fh)["builder"]
swept = builder["objects_swept"]
bound = builder["records_in"] + builder["finalized"]
print(f"live_smoke: objects_swept {swept} <= records_in + finalized {bound}")
sys.exit(0 if swept <= bound else 1)
EOF
then
  echo "live_smoke: /stats builder.objects_swept exceeds records_in + finalized" >&2
  exit 1
fi

queries=(
  "projection=count"
  "projection=ids"
  "projection=trajectories"
  "projection=trajectories&object=1"
  "projection=ids&cell=10"
  "projection=count&object=2&cell=11"
)
for q in "${queries[@]}"; do
  curl -s "$base/query?$q" > "$work_dir/live_answer.json"
  "$server_bin" batch "$work_dir/all.json" "$q" > "$work_dir/batch_answer.json"
  # The served body has no trailing newline; batch mode prints one.
  if diff <(cat "$work_dir/live_answer.json"; echo) \
          "$work_dir/batch_answer.json" > /dev/null; then
    echo "live_smoke: MATCH  ?$q"
  else
    echo "live_smoke: MISMATCH ?$q" >&2
    echo "  live:  $(cat "$work_dir/live_answer.json")" >&2
    echo "  batch: $(cat "$work_dir/batch_answer.json")" >&2
    failed=1
  fi
done

# Bad parameters must answer 400 with a JSON {"error": "..."} body; an
# out-of-range id must not clamp into a valid one.
bad_queries=(
  "projection=bogus"
  "object=99999999999999999999"
)
for q in "${bad_queries[@]}"; do
  expect_error 400 "?$q" "$base/query?$q"
done

curl -s -X POST "$base/shutdown" > /dev/null
wait "$server_pid"
server_status=$?
trap - EXIT
if [ "$server_status" -ne 0 ]; then
  echo "live_smoke: server exited nonzero ($server_status)" >&2
  exit 1
fi
if [ "$failed" -ne 0 ]; then
  echo "live_smoke: FAILED — live answers diverge from batch, or a bad request was not rejected" >&2
  exit 1
fi
echo "live_smoke: OK — ${#queries[@]} live answers byte-identical to batch, ${#bad_queries[@]} bad queries and a truncated batch rejected with 400, an unknown path with 404"
