#!/usr/bin/env bash
# End-to-end smoke test for the sharded serving stack: partition a graph
# with `sphere -shards`, serve it from two soid shard processes (shard 0
# with a second replica), front them with the soigw gateway, and drive the
# robustness story: replica failover, a mid-query shard kill degrading to a
# 206 with a widened error bound, circuit-breaker open -> half-open -> closed
# recovery after a restart, and a clean SIGTERM drain.
#
# Run via `make topology-smoke`. Requires only the go toolchain and curl.
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
  echo "topology-smoke: FAIL: $*" >&2
  # Capture logs and the gateway's retained traces for offline triage (CI
  # uploads SOI_SMOKE_ARTIFACTS when the gauntlet fails).
  if [ -n "${SOI_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SOI_SMOKE_ARTIFACTS"
    cp "$work"/*.log "$work"/*.json "$SOI_SMOKE_ARTIFACTS"/ 2>/dev/null || true
    if [ -s "$work/gw.addr" ]; then
      curl -s "http://$(cat "$work/gw.addr")/debug/traces" \
        > "$SOI_SMOKE_ARTIFACTS/gw-traces.json" 2>/dev/null || true
    fi
    echo "topology-smoke: artifacts captured in $SOI_SMOKE_ARTIFACTS" >&2
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

echo "topology-smoke: building binaries"
go build -o "$work/sphere" ./cmd/sphere
go build -o "$work/soid" ./cmd/soid
go build -o "$work/soigw" ./cmd/soigw

echo "topology-smoke: partitioning into 2 shards"
"$work/sphere" -graph "$work/g.tsv" -samples 200 -shards 2 -shard-out "$work/net"
grep -q '"cut_edges": 0' "$work/net-topology.json" || \
  fail "expected a clean partition of two disconnected rings"

# --- shard processes: shard 0 gets two replicas (A, B), shard 1 one (C) ---
start_soid() { # name shard
  local name=$1 shard=$2
  "$work/soid" \
    -graph "$work/net-shard$shard.tsv" -index "$work/net-shard$shard.idx" \
    -spheres "$work/net-shard$shard.spheres" \
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
      -addr "$addr" 2>> "$work/$name.log" &
    local p=$!
    disown
    sleep 0.2
    if kill -0 "$p" 2>/dev/null; then pids+=("$p"); eval "${name}_pid=$p"; return 0; fi
    sleep 0.2
  done
  fail "could not rebind $name on $addr"
}

echo "topology-smoke: starting shard replicas"
start_soid a 0
start_soid b 0
start_soid c 1
wait_file "$work/a.addr"; wait_file "$work/b.addr"; wait_file "$work/c.addr"
a_addr="$(cat "$work/a.addr")"; b_addr="$(cat "$work/b.addr")"; c_addr="$(cat "$work/c.addr")"

# --- gateway --------------------------------------------------------------
echo "topology-smoke: starting soigw"
"$work/soigw" -topology "$work/net-topology.json" \
  -replicas "http://$a_addr,http://$b_addr;http://$c_addr" \
  -addr 127.0.0.1:0 -addr-file "$work/gw.addr" \
  -retries 2 -retry-base 10ms -hedge-delay=-1ms \
  -breaker-failures 2 -breaker-cooldown 500ms -probe-interval 200ms \
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
echo "topology-smoke: gateway ready on $gw (2 shards, 3 replicas)"

get_code() { curl -s -o "$work/body" -w '%{http_code}' "http://$gw$1"; }

# --- healthy scatter: both shards answer, full quality --------------------
code="$(get_code '/v1/spread?seeds=0,20')"
[ "$code" = 200 ] || { cat "$work/body" >&2; fail "healthy spread got $code, want 200"; }
grep -q '"shards_ok":2' "$work/body" || fail "healthy spread body lacks shards_ok=2"
echo "topology-smoke: healthy scatter answered 200 from both shards"

# --- gateway cache: the same healthy query is replayed without a leg ------
# The cache key leaves the budget out, so every later step adds a seed of
# its own to the set spanning both shards: each is a fresh cache key and
# still reaches the shards after its fault.
cp "$work/body" "$work/first"
code="$(curl -s -D "$work/hdrs" -o "$work/body" -w '%{http_code}' "http://$gw/v1/spread?seeds=0,20")"
[ "$code" = 200 ] || { cat "$work/body" >&2; fail "repeated spread got $code, want 200"; }
grep -qi '^x-cache: hit' "$work/hdrs" || { cat "$work/hdrs" >&2; fail "repeated spread was not a gateway cache hit"; }
cmp -s "$work/first" "$work/body" || fail "gateway cache hit replayed different bytes"
curl -s "http://$gw/metrics" | grep -q '^soi_router_cache_hits_total 1$' || \
  fail "gateway /metrics does not count the cache hit"
echo "topology-smoke: repeated query answered from the gateway cache with identical bytes"

# --- replica failover: kill shard 0's primary, answers stay full-quality --
kill -9 "$a_pid"
code="$(get_code '/v1/spread?seeds=0,20,1&budget=3s')"
[ "$code" = 200 ] || { cat "$work/body" >&2; fail "spread after replica kill got $code, want 200"; }
grep -q '"shards_ok":2' "$work/body" || fail "failover spread body lacks shards_ok=2"
echo "topology-smoke: replica A killed, retries failed over to replica B"

# --- mid-query shard kill: degraded 206 with a widened error bound --------
# Restart shard 1 with its compute pinned by a 2s failpoint delay, fire a
# scatter, and kill the only shard-1 replica while its leg is inside the
# delay.
kill -9 "$c_pid"
restart_soid c 1 "server/compute=delay:delay=2s"
wait_ready "$c_addr" || fail "shard 1 never became ready after its restart"
wait_ready "$gw" || fail "gateway did not see shard 1 ready again"
curl -s -o "$work/degraded" -w '%{http_code}' \
  "http://$gw/v1/spread?seeds=0,20,2&budget=5s" > "$work/degraded.code" &
query_pid=$!
sleep 0.5
kill -9 "$c_pid"
wait "$query_pid" || fail "degraded query curl failed"
[ "$(cat "$work/degraded.code")" = 206 ] || \
  { cat "$work/degraded" >&2; fail "mid-query kill got $(cat "$work/degraded.code"), want 206"; }
grep -q '"partial":true' "$work/degraded" || fail "206 body lacks partial flag"
grep -q '"failed_shards":\[1\]' "$work/degraded" || fail "206 body does not name shard 1 as failed"
grep -q '"error_bound":' "$work/degraded" || fail "206 body lacks an error bound"
grep -q '"error_bound":0,' "$work/degraded" && fail "206 error bound was not widened"
echo "topology-smoke: mid-query kill degraded to 206 naming shard 1, bound widened"

# --- breaker opens on the dead replica ------------------------------------
code="$(get_code '/v1/spread?seeds=0,20,3&budget=4s')" # second consecutive failure
[ "$code" = 206 ] || { cat "$work/body" >&2; fail "spread with shard 1 down got $code, want 206"; }
curl -s "http://$gw/v1/topology" > "$work/topo"
grep -q '"breaker":"open"' "$work/topo" || { cat "$work/topo" >&2; fail "dead replica's breaker did not open"; }
echo "topology-smoke: shard 1 breaker open, gateway keeps serving degraded answers"

# --- recovery: restart the shard, breaker half-open probe closes it -------
restart_soid c 1
sleep 0.7 # breaker cooldown (500ms) + probe interval
for _ in $(seq 1 50); do
  code="$(get_code '/v1/spread?seeds=0,20,4&budget=6s')"
  [ "$code" = 200 ] && break
  sleep 0.2
done
[ "$code" = 200 ] || { cat "$work/body" >&2; fail "spread after shard restart got $code, want 200"; }
grep -q '"shards_ok":2' "$work/body" || fail "recovered spread body lacks shards_ok=2"
curl -s "http://$gw/v1/topology" > "$work/topo"
# Replica A stays dead on purpose; only shard 1's breaker must have closed.
grep -o '"id":1.*' "$work/topo" | grep -q '"breaker":"open"' && \
  { cat "$work/topo" >&2; fail "shard 1 breaker still open after recovery"; }
echo "topology-smoke: shard 1 restarted, breaker closed, full-quality answers resumed"

# --- graceful drain -------------------------------------------------------
kill -TERM "$gw_pid"
drain_code=0
wait "$gw_pid" || drain_code=$?
[ "$drain_code" = 0 ] || { cat "$work/gw.log" >&2; fail "soigw exited $drain_code on SIGTERM, want 0"; }
grep -q "drained cleanly" "$work/gw.log" || { cat "$work/gw.log" >&2; fail "no clean-drain notice in the gateway log"; }
echo "topology-smoke: PASS"
