#!/usr/bin/env bash
# Distributed-tracing smoke test for the soigw -> soid serving path: serve a
# partitioned graph from two soid shards behind a soigw gateway with tracing
# and request logs on, then (1) follow a healthy query's X-SOI-Request-ID
# into /debug/traces/{id} on both the gateway and a shard — the same trace id
# must appear in both processes (traceparent propagation), and (2) kill the
# only shard-1 replica mid-query and assert the resulting 206's trace shows
# the dead leg (errored soigw.leg with a retry) and the breaker opening.
#
# On failure, set SOI_SMOKE_ARTIFACTS=<dir> to capture logs, request logs,
# and /debug/traces dumps for offline triage (CI uploads these).
#
# Run via `make trace-smoke`. Requires only the go toolchain and curl.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "trace-smoke: FAIL: $*" >&2
  if [ -n "${SOI_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SOI_SMOKE_ARTIFACTS"
    cp "$work"/*.log "$work"/*.jsonl "$work"/*.json "$SOI_SMOKE_ARTIFACTS"/ 2>/dev/null || true
    [ -n "${gw:-}" ] && curl -s "http://$gw/debug/traces" \
      > "$SOI_SMOKE_ARTIFACTS/gw-traces.json" 2>/dev/null || true
    echo "trace-smoke: artifacts captured in $SOI_SMOKE_ARTIFACTS" >&2
  fi
  exit 1
}

# --- artifacts: two disconnected 15-node rings => a clean 2-way partition --
awk 'BEGIN {
  for (r = 0; r < 2; r++) {
    base = r * 15;
    for (i = 0; i < 15; i++) printf "%d\t%d\t0.8\n", base + i, base + (i + 1) % 15;
    for (i = 0; i < 15; i += 3) printf "%d\t%d\t0.3\n", base + i, base + (i + 5) % 15;
  }
}' > "$work/g.tsv"

echo "trace-smoke: building binaries"
go build -o "$work/sphere" ./cmd/sphere
go build -o "$work/soid" ./cmd/soid
go build -o "$work/soigw" ./cmd/soigw

echo "trace-smoke: partitioning into 2 shards"
"$work/sphere" -graph "$work/g.tsv" -samples 200 -shards 2 -shard-out "$work/net"

start_soid() { # name shard
  local name=$1 shard=$2
  "$work/soid" \
    -graph "$work/net-shard$shard.tsv" -index "$work/net-shard$shard.idx" \
    -spheres "$work/net-shard$shard.spheres" \
    -trace-sample 1 -request-log "$work/$name.requests.jsonl" \
    -addr 127.0.0.1:0 -addr-file "$work/$name.addr" 2> "$work/$name.log" &
  pids+=($!)
  eval "${name}_pid=$!"
  disown
}
wait_file() {
  for _ in $(seq 1 100); do [ -s "$1" ] && return 0; sleep 0.1; done
  fail "timed out waiting for $1"
}
wait_ready() { # addr
  for _ in $(seq 1 100); do
    [ "$(curl -s -o /dev/null -w '%{http_code}' "http://$1/readyz")" = 200 ] && return 0
    sleep 0.1
  done
  return 1
}
# restart_soid rebinds the address recorded at first start, with the
# failpoint spec (if any) armed from SOI_FAILPOINTS at process start.
restart_soid() { # name shard [failpoint spec]
  local name=$1 shard=$2 spec=${3:-} addr
  addr="$(cat "$work/$name.addr")"
  for _ in $(seq 1 50); do # the killed process's port may linger briefly
    SOI_FAILPOINTS="$spec" "$work/soid" \
      -graph "$work/net-shard$shard.tsv" -index "$work/net-shard$shard.idx" \
      -spheres "$work/net-shard$shard.spheres" \
      -trace-sample 1 -request-log "$work/$name.requests.jsonl" \
      -addr "$addr" 2>> "$work/$name.log" &
    local p=$!
    disown
    sleep 0.2
    if kill -0 "$p" 2>/dev/null; then pids+=("$p"); eval "${name}_pid=$p"; return 0; fi
    sleep 0.2
  done
  fail "could not rebind $name on $addr"
}

echo "trace-smoke: starting shard daemons with tracing on"
start_soid a 0
start_soid c 1
wait_file "$work/a.addr"; wait_file "$work/c.addr"
a_addr="$(cat "$work/a.addr")"; c_addr="$(cat "$work/c.addr")"

for shard in "$a_addr" "$c_addr"; do
  wait_ready "$shard" || fail "shard $shard never became ready"
done

# Hedging stays off, and the gateway probes its (ready) shards once at
# startup and not again while the script runs, so every span and breaker
# event in the captured traces comes from the requests this script sends.
# Probing is on rather than off because only then does the gateway cache
# complete answers.
echo "trace-smoke: starting soigw with tracing on"
"$work/soigw" -topology "$work/net-topology.json" \
  -replicas "http://$a_addr;http://$c_addr" \
  -addr 127.0.0.1:0 -addr-file "$work/gw.addr" \
  -retries 2 -retry-base 10ms -hedge-delay=-1ms \
  -breaker-failures 2 -breaker-cooldown 10s -probe-interval 10m \
  -trace-sample 1 -request-log "$work/gw.requests.jsonl" \
  -drain-timeout 10s 2> "$work/gw.log" &
gw_pid=$!
pids+=("$gw_pid")
wait_file "$work/gw.addr"
gw="$(cat "$work/gw.addr")"

for _ in $(seq 1 100); do
  code="$(curl -s -o /dev/null -w '%{http_code}' "http://$gw/readyz")" || true
  [ "$code" = 200 ] && break
  sleep 0.1
done
[ "$code" = 200 ] || { cat "$work/gw.log" >&2; fail "gateway never became ready"; }
echo "trace-smoke: gateway ready on $gw"

req_id() { # extract X-SOI-Request-ID from a curl -D header dump
  awk 'tolower($1) == "x-soi-request-id:" { print $2 }' "$1" | tr -d '\r'
}

# --- healthy query: one trace id, fragments on the gateway AND the shard --
code="$(curl -s -D "$work/hdrs" -o "$work/body" -w '%{http_code}' \
  "http://$gw/v1/spread?seeds=0,20")"
[ "$code" = 200 ] || { cat "$work/body" >&2; fail "healthy spread got $code, want 200"; }
rid="$(req_id "$work/hdrs")"
echo "$rid" | grep -Eq '^[0-9a-f]{32}$' || fail "bad X-SOI-Request-ID: '$rid'"

code="$(curl -s -o "$work/trace.json" -w '%{http_code}' "http://$gw/debug/traces/$rid")"
[ "$code" = 200 ] || { cat "$work/trace.json" >&2; fail "gateway /debug/traces/$rid got $code"; }
grep -q '"soi.trace/v1"' "$work/trace.json" || fail "gateway trace lacks the soi.trace/v1 schema"
grep -q '"soigw.spread"' "$work/trace.json" || fail "gateway trace lacks the soigw.spread root span"
grep -q '"soigw.leg"' "$work/trace.json" || fail "gateway trace lacks shard-leg spans"

code="$(curl -s -o "$work/shard-trace.json" -w '%{http_code}' "http://$a_addr/debug/traces/$rid")"
[ "$code" = 200 ] || { cat "$work/shard-trace.json" >&2; fail "shard /debug/traces/$rid got $code"; }
grep -q '"soid.spread"' "$work/shard-trace.json" || fail "shard trace lacks its soid.spread span"
grep -Eq '"remote_parent": ?true' "$work/shard-trace.json" || \
  fail "shard span does not mark its gateway parent as remote"
echo "trace-smoke: trace $rid links gateway and shard fragments via traceparent"

# --- cache hit: the repeated query is answered by the gateway, no leg -----
# The fault step below adds a seed of its own (the cache key leaves the
# budget out), so its key is fresh and its scatter still reaches the shards.
cp "$work/body" "$work/first"
code="$(curl -s -D "$work/hit.hdrs" -o "$work/body" -w '%{http_code}' \
  "http://$gw/v1/spread?seeds=0,20")"
[ "$code" = 200 ] || { cat "$work/body" >&2; fail "repeated spread got $code, want 200"; }
grep -qi '^x-cache: hit' "$work/hit.hdrs" || fail "repeated spread was not a gateway cache hit"
cmp -s "$work/first" "$work/body" || fail "gateway cache hit replayed different bytes"
hrid="$(req_id "$work/hit.hdrs")"
curl -s -o "$work/hit-trace.json" "http://$gw/debug/traces/$hrid"
grep -q '"cache.lookup"' "$work/hit-trace.json" || fail "cache-hit trace lacks its cache.lookup span"
grep -q '"soigw.leg"' "$work/hit-trace.json" && fail "cache-hit trace has a shard leg"
grep "\"trace_id\":\"$hrid\"" "$work/gw.requests.jsonl" | grep -q '"cache":"hit"' || \
  fail "gateway request log does not mark the repeat as a cache hit"
echo "trace-smoke: repeated query $hrid answered from the gateway cache, no leg"

# --- mid-query shard kill: the 206's trace shows the dead leg + breaker ---
# Restart shard 1 with its compute pinned by a 2s failpoint delay, fire a
# scatter, and kill the only shard-1 replica while its leg is inside the
# delay. The leg errors, both retries hit a dead port, and the second
# failure opens the breaker.
kill -9 "$c_pid"
restart_soid c 1 "server/compute=delay:delay=2s"
wait_ready "$c_addr" || fail "shard 1 never became ready after its restart"
curl -s -D "$work/deg.hdrs" -o "$work/degraded" -w '%{http_code}' \
  "http://$gw/v1/spread?seeds=0,20,1&budget=5s" > "$work/degraded.code" &
query_pid=$!
sleep 0.5
kill -9 "$c_pid"
wait "$query_pid" || fail "degraded query curl failed"
[ "$(cat "$work/degraded.code")" = 206 ] || \
  { cat "$work/degraded" >&2; fail "mid-query kill got $(cat "$work/degraded.code"), want 206"; }
drid="$(req_id "$work/deg.hdrs")"
echo "$drid" | grep -Eq '^[0-9a-f]{32}$' || fail "bad X-SOI-Request-ID on the 206: '$drid'"

code="$(curl -s -o "$work/deg-trace.json" -w '%{http_code}' "http://$gw/debug/traces/$drid")"
[ "$code" = 200 ] || { cat "$work/deg-trace.json" >&2; fail "gateway /debug/traces/$drid got $code"; }
grep -Eq '"retained": ?"(partial|error)"' "$work/deg-trace.json" || \
  fail "degraded trace was not retained as partial/error"
grep -q '"error":' "$work/deg-trace.json" || fail "degraded trace has no errored (dead) leg"
grep -q '"retry"' "$work/deg-trace.json" || fail "degraded trace records no retry event"
grep -q '"breaker_transition"' "$work/deg-trace.json" || \
  fail "degraded trace records no breaker_transition event"
grep -q '"degraded"' "$work/deg-trace.json" || fail "degraded trace lacks the degraded event"
echo "trace-smoke: 206 trace $drid shows the dead leg, retries, and breaker opening"

# --- request logs: one JSONL record per request on both tiers -------------
grep -q '"service":"soigw"' "$work/gw.requests.jsonl" || fail "gateway request log is empty"
grep "\"trace_id\":\"$drid\"" "$work/gw.requests.jsonl" | grep -q '"status":206' || \
  fail "gateway request log lacks the 206 record for trace $drid"
grep "\"trace_id\":\"$drid\"" "$work/gw.requests.jsonl" | grep -q '"failed_shards":\[1\]' || \
  fail "gateway 206 record does not name shard 1 as failed"
grep -q '"service":"soid"' "$work/a.requests.jsonl" || fail "shard request log is empty"
grep -q "\"trace_id\":\"$rid\"" "$work/a.requests.jsonl" || \
  fail "shard request log lacks the healthy query's trace id"
echo "trace-smoke: request logs carry the trace ids on both tiers"

# --- graceful drain -------------------------------------------------------
kill -TERM "$gw_pid"
drain_code=0
wait "$gw_pid" || drain_code=$?
[ "$drain_code" = 0 ] || { cat "$work/gw.log" >&2; fail "soigw exited $drain_code on SIGTERM, want 0"; }
echo "trace-smoke: PASS"
