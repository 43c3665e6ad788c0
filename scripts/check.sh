#!/usr/bin/env sh
# Repository gate: vet + mplint, build, the full test suite under the
# race detector, a concurrency stress pass, and a short fuzz smoke over
# each fuzz target (seed corpus plus a few seconds of mutation — enough
# to catch regressions in the filter/update/path invariants without
# turning CI into a fuzz farm).
set -eu
cd "$(dirname "$0")/.."

# Static analysis gate. mplint (cmd/mplint) enforces the repo's
# concurrency/determinism/durability invariants; its exit-code contract:
#   0 — clean; the gate proceeds
#   1 — findings; set -e stops the gate right here (fix the code or add
#       a //lint:ignore <analyzer> <reason> with a real justification)
#   2 — load/type error; the tree does not even type-check
go vet ./...
mplint_bin="${TMPDIR:-/tmp}/mplint.$$"
go build -o "$mplint_bin" ./cmd/mplint
trap 'rm -f "$mplint_bin"' EXIT

# Registration smoke: every analyzer the suite is supposed to carry must
# be selectable, or a refactor that drops one silently weakens the gate.
mplint_list="$("$mplint_bin" -list)"
for a in clockdiscipline seededrand fsyncerr docaliasing lockheld wrapcheck \
         lockorder goroleak gendiscipline atomicmix; do
    case "$mplint_list" in
    *"$a"*) ;;
    *) echo "check.sh: analyzer $a missing from mplint -list" >&2; exit 1 ;;
    esac
done

# Timing budget: the whole-module run (interprocedural fact base
# included) must stay under 60s, so the suite remains cheap enough to
# gate every commit.
lint_start=$(date +%s)
"$mplint_bin" ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 60 ]; then
    echo "check.sh: mplint took ${lint_elapsed}s, budget is 60s" >&2
    exit 1
fi
echo "mplint clean in ${lint_elapsed}s (budget 60s)"
go build ./...
go test -race ./...

# Stress pass: the lock-ordering and lease/failover machinery is where
# interleaving bugs hide; run those suites twice under the race
# detector so flaky schedules get a second chance to trip it. rcache and
# queryengine ride along for the cache freshness invariant (no stale
# read after an acknowledged write, writers racing readers).
echo "stress pass (-race -count=2: cluster, fireworks, rcache, queryengine)..."
go test -race -count=2 ./internal/cluster/ ./internal/fireworks/ ./internal/rcache/ ./internal/queryengine/
# Read contract: results are shared read-only snapshots. Readers on every
# serving path race writers on the same documents; a write into a shared
# result is a data race, and no held snapshot may change.
echo "read-snapshot stress (-race -count=3)..."
go test -race -count=3 -run '^TestReadSnapshotsUnderConcurrentWrites$' ./internal/restapi/

# Planner correctness oracle: >=1200 seeded corpus/query pairs where the
# planner-chosen execution must match a naive scan-then-sort twin
# exactly (ids, order, projections, counts). Runs under -race because
# readers rebuilding the lazy sorted key list share the collection read
# lock. Zero violations is the gate.
echo "scan-vs-index oracle (-race)..."
go test -race -count=1 -run '^TestOracle' ./internal/datastore/

FUZZTIME="${FUZZTIME:-5s}"
echo "fuzz smoke (${FUZZTIME} per target)..."
go test ./internal/query/ -run '^$' -fuzz '^FuzzFilterCompileMatch$' -fuzztime "$FUZZTIME"
go test ./internal/query/ -run '^$' -fuzz '^FuzzUpdateApply$' -fuzztime "$FUZZTIME"
go test ./internal/document/ -run '^$' -fuzz '^FuzzDocumentPath$' -fuzztime "$FUZZTIME"
go test ./internal/document/ -run '^$' -fuzz '^FuzzDocumentJSON$' -fuzztime "$FUZZTIME"
go test ./internal/datastore/ -run '^$' -fuzz '^FuzzKeyEncodingOrder$' -fuzztime "$FUZZTIME"
go test ./internal/cluster/wire/ -run '^$' -fuzz '^FuzzWireRequest$' -fuzztime "$FUZZTIME"

# Cluster e2e smoke: two real shard-node processes, a router process that
# loads the corpus over the wire, and a routed query through the public
# API — the networked analogue of the in-process tests.
echo "cluster e2e smoke..."
TMP=$(mktemp -d)
go build -o "$TMP/mpserve" ./cmd/mpserve
"$TMP/mpserve" -role node -addr 127.0.0.1:19801 >"$TMP/n1.log" 2>&1 &
N1=$!
"$TMP/mpserve" -role node -addr 127.0.0.1:19802 >"$TMP/n2.log" 2>&1 &
N2=$!
"$TMP/mpserve" -role router -addr 127.0.0.1:19800 -shards 2 -materials 20 \
    -ordered-index materials:band_gap \
    -peers http://127.0.0.1:19801,http://127.0.0.1:19802 >"$TMP/r.log" 2>&1 &
R=$!
trap 'kill $N1 $N2 $R ${S:-} ${F1:-} ${F2:-} ${F3:-} ${F4:-} ${F3B:-} ${FR:-} 2>/dev/null || true; rm -rf "$TMP"' EXIT
for _ in $(seq 1 30); do
    curl -fsS -o /dev/null http://127.0.0.1:19800/status 2>/dev/null && break
    sleep 1
done
KEY=$(curl -fsS -X POST 'http://127.0.0.1:19800/auth/signup?provider=google&email=check@example.com' \
    | jq -r '.response[0].api_key')
curl -fsS -X POST -H "X-API-KEY: $KEY" -H 'Content-Type: application/json' \
    -d '{"criteria":{},"properties":["pretty_formula","final_energy"],"limit":5}' \
    http://127.0.0.1:19800/rest/v1/query \
    | jq -e '.valid_response == true and (.response | length > 0)' >/dev/null \
    || { echo "check: routed query failed"; tail "$TMP/r.log"; exit 1; }
curl -fsS http://127.0.0.1:19800/metrics | grep -q 'cluster_scatter_total' \
    || { echo "check: router metrics missing cluster counters"; exit 1; }
# Routed $explain: the REST explain flag must come back as the merged
# per-shard plan document, and with -ordered-index materials:band_gap
# above, a band_gap range query must plan as an index read on every
# shard (merged mode "index", not "mixed" or "scan"), through the one
# index kind there is.
curl -fsS -X POST -H "X-API-KEY: $KEY" -H 'Content-Type: application/json' \
    -d '{"criteria":{"band_gap":{"$gte":1.0,"$lt":3.0}},"explain":true}' \
    http://127.0.0.1:19800/rest/v1/query \
    | jq -e '.valid_response == true and .response[0].sharded == true and .response[0].mode == "index"
        and all(.response[0].shards[]; .index_kind == "ordered")' >/dev/null \
    || { echo "check: routed \$explain did not report an index plan"; tail "$TMP/r.log"; exit 1; }
echo "cluster smoke: routed query + metrics + \$explain OK"

# Ingest e2e smoke: batched writes through the same running router. A
# 3-doc insertMany must come back as 3 rows with ids; a mixed bulkWrite
# with an intentional duplicate insert must report the failure on that
# op alone (per-doc error reporting) while the ops around it apply; and
# an oversized body must be refused with 413.
echo "ingest e2e smoke..."
curl -fsS -X POST -H "X-API-KEY: $KEY" -H 'Content-Type: application/json' \
    -d '{"docs":[{"_id":"ing-a","pretty_formula":"TiO2","final_energy":-9.0},{"_id":"ing-b","pretty_formula":"MgO","final_energy":-5.5},{"pretty_formula":"ZnS","final_energy":-4.1}]}' \
    http://127.0.0.1:19800/rest/v1/insertMany \
    | jq -e '.valid_response == true and (.response | length == 3) and all(.response[]; ._id != null and ._id != "")' >/dev/null \
    || { echo "check: routed insertMany failed"; tail "$TMP/r.log"; exit 1; }
curl -fsS -X POST -H "X-API-KEY: $KEY" -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"insert","doc":{"_id":"ing-1","pretty_formula":"CaO"}},{"op":"insert","doc":{"_id":"ing-1","pretty_formula":"CaO"}},{"op":"updateMany","filter":{"_id":"ing-a"},"update":{"$set":{"band_gap":7.0}}},{"op":"delete","filter":{"_id":"ing-b"}}]}' \
    http://127.0.0.1:19800/rest/v1/bulkWrite \
    | jq -e '.valid_response == true and (.response | length == 4)
        and .response[0].id == "ing-1" and (.response[0] | has("error") | not)
        and (.response[1].error != null and .response[1].error != "")
        and .response[2].matched == 1 and .response[2].modified == 1
        and .response[3].removed == 1' >/dev/null \
    || { echo "check: routed bulkWrite per-op results wrong"; tail "$TMP/r.log"; exit 1; }
# The body must be syntactically valid JSON up to the cap so the
# decoder streams into the limiter instead of failing on byte one.
CODE=$({ printf '{"criteria":{"pretty_formula":"'; head -c 9000000 /dev/zero | tr '\0' 'x'; printf '"}}'; } \
    | curl -s -o /dev/null -w '%{http_code}' -X POST -H "X-API-KEY: $KEY" \
          -H 'Content-Type: application/json' --data-binary @- \
          http://127.0.0.1:19800/rest/v1/query)
[ "$CODE" = "413" ] \
    || { echo "check: oversized body returned $CODE, want 413"; exit 1; }
echo "ingest smoke: insertMany + bulkWrite per-doc errors + 413 body cap OK"

# Result-cache e2e smoke: a standalone server, the same GET twice (the
# second must be a cache hit per /metrics), then a conditional GET with
# the response's ETag (must come back 304 Not Modified).
echo "cache e2e smoke..."
"$TMP/mpserve" -addr 127.0.0.1:19810 -materials 20 >"$TMP/s.log" 2>&1 &
S=$!
for _ in $(seq 1 30); do
    curl -fsS -o /dev/null http://127.0.0.1:19810/status 2>/dev/null && break
    sleep 1
done
KEY=$(curl -fsS -X POST 'http://127.0.0.1:19810/auth/signup?provider=google&email=cache@example.com' \
    | jq -r '.response[0].api_key')
F=$(curl -fsS -X POST -H "X-API-KEY: $KEY" -H 'Content-Type: application/json' \
    -d '{"criteria":{},"properties":["pretty_formula"],"limit":1}' \
    http://127.0.0.1:19810/rest/v1/query | jq -r '.response[0].pretty_formula')
curl -fsS -H "X-API-KEY: $KEY" -o /dev/null "http://127.0.0.1:19810/rest/v1/materials/$F/vasp"
ETAG=$(curl -fsS -H "X-API-KEY: $KEY" -o /dev/null -D - "http://127.0.0.1:19810/rest/v1/materials/$F/vasp" \
    | awk 'tolower($1)=="etag:" {print $2}' | tr -d '\r')
curl -fsS http://127.0.0.1:19810/metrics \
    | jq -e '.counters["rcache.hits"] >= 1' >/dev/null \
    || { echo "check: repeated GET was not a cache hit"; tail "$TMP/s.log"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "X-API-KEY: $KEY" -H "If-None-Match: $ETAG" \
    "http://127.0.0.1:19810/rest/v1/materials/$F/vasp")
[ "$CODE" = "304" ] \
    || { echo "check: conditional GET returned $CODE, want 304"; exit 1; }
echo "cache smoke: hit + 304 OK"

# Failover e2e smoke (SLO-gated): a 2-shard × 2-member cluster of real
# processes with durable node stores takes a fixed-rate open-loop
# webload with bounded-staleness follower reads while one replica is
# killed (-9) and restarted mid-run. The gate fails if the p99 exceeds
# its budget, any probe read observes data older than its staleness
# bound (mpbench -exp webload exits nonzero on either), or the router
# re-admitted the replica without shipping log entries — i.e. anything
# but incremental catch-up.
echo "failover e2e smoke..."
go build -o "$TMP/mpbench" ./cmd/mpbench
"$TMP/mpserve" -role node -addr 127.0.0.1:19821 -data "$TMP/d1" >"$TMP/f1.log" 2>&1 &
F1=$!
"$TMP/mpserve" -role node -addr 127.0.0.1:19822 -data "$TMP/d2" >"$TMP/f2.log" 2>&1 &
F2=$!
"$TMP/mpserve" -role node -addr 127.0.0.1:19823 -data "$TMP/d3" >"$TMP/f3.log" 2>&1 &
F3=$!
"$TMP/mpserve" -role node -addr 127.0.0.1:19824 -data "$TMP/d4" >"$TMP/f4.log" 2>&1 &
F4=$!
# Round-robin assignment: group 0 = {19821, 19823}, group 1 = {19822, 19824}.
"$TMP/mpserve" -role router -addr 127.0.0.1:19820 -shards 2 -materials 30 \
    -health-interval 300ms \
    -peers http://127.0.0.1:19821,http://127.0.0.1:19822,http://127.0.0.1:19823,http://127.0.0.1:19824 \
    >"$TMP/fr.log" 2>&1 &
FR=$!
for _ in $(seq 1 30); do
    curl -fsS -o /dev/null http://127.0.0.1:19820/status 2>/dev/null && break
    sleep 1
done
"$TMP/mpbench" -exp webload -url http://127.0.0.1:19820 \
    -rate 60 -load-duration 8s -max-staleness 4 -probe-groups 2 -slo-p99-ms 500 \
    -webload-out "$TMP/BENCH_webload.json" >"$TMP/webload.log" 2>&1 &
W=$!
sleep 2
# Kill group 0's replica outright mid-load...
kill -9 $F3 2>/dev/null || true
sleep 2
# ...and bring it back on the same port with the same durable store: it
# replays its journal, then the router must catch it up from the log.
"$TMP/mpserve" -role node -addr 127.0.0.1:19823 -data "$TMP/d3" >"$TMP/f3b.log" 2>&1 &
F3B=$!
wait $W \
    || { echo "check: webload SLO/staleness gate failed"; cat "$TMP/webload.log"; exit 1; }
cat "$TMP/webload.log"
curl -fsS http://127.0.0.1:19820/metrics \
    | jq -e '.counters["cluster.repl_readmissions"] >= 1 and .counters["cluster.repl_catchup_entries"] >= 1' >/dev/null \
    || { echo "check: replica was not re-admitted via log catch-up"; curl -fsS http://127.0.0.1:19820/metrics | jq '.counters'; exit 1; }
echo "failover smoke: SLO held through kill + log-catch-up re-admission OK"

# The in-process chaos variant writes the BENCH_failover.json artifact
# and enforces the same gates without process orchestration.
"$TMP/mpbench" -exp failover -rate 100 -load-duration 3s \
    -failover-out BENCH_failover.json \
    || { echo "check: in-process failover gate failed"; exit 1; }

# Group-commit ingest gate: batched durable writes must sustain at least
# 5x the sequential fsync-per-document throughput (artifact:
# BENCH_ingest.json).
"$TMP/mpbench" -exp ingest -ingest-out BENCH_ingest.json \
    || { echo "check: ingest throughput gate failed"; exit 1; }

# Planner gate (artifact: BENCH_planner.json): at 100k documents the
# indexed range read must beat the full scan by mpbench's
# -planner-min-speedup (10x), and the indexed equality read by 5x. Both
# are ratios from the same run.
"$TMP/mpbench" -exp planner -planner-out BENCH_planner.json \
    || { echo "check: planner range speedup gate failed"; exit 1; }
jq -e '.eq_speedup_100k >= 5' BENCH_planner.json >/dev/null \
    || { echo "check: indexed equality speedup $(jq '.eq_speedup_100k' BENCH_planner.json)x under the 5x gate"; exit 1; }
echo "check: all green"
