#!/usr/bin/env bash
# End-to-end smoke test for sketch-based estimation: build an index and a
# combined bottom-k sketch (SOISKC02) with sphere -sketch-out, serve both
# with soid -sketch, query /v1/{spread,sphere,seeds} with estimator=sketch,
# and assert every sketch answer lands within its own reported error_bound
# of the dense index answer over the same sampled worlds. Also asserts a
# daemon without a sketch answers estimator=sketch with 409.
#
# Run via `make sketch-smoke`. Requires the go toolchain, curl, and jq.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
soid_pid=""
bare_pid=""
cleanup() {
  [ -n "$soid_pid" ] && kill -9 "$soid_pid" 2>/dev/null || true
  [ -n "$bare_pid" ] && kill -9 "$bare_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fail() { echo "sketch-smoke: FAIL: $*" >&2; exit 1; }
within() { awk -v a="$1" -v b="$2" -v e="$3" 'BEGIN{d=a-b; if (d<0) d=-d; exit !(d<=e+1e-9)}'; }

# --- artifacts: a 40-node ring with shortcuts, index, sketch ---------------
awk 'BEGIN {
  for (i = 0; i < 40; i++) printf "%d\t%d\t0.8\n", i, (i + 1) % 40;
  for (i = 0; i < 40; i += 4) printf "%d\t%d\t0.3\n", i, (i + 9) % 40;
}' > "$work/g.tsv"

echo "sketch-smoke: building binaries"
go build -o "$work/sphere" ./cmd/sphere
go build -o "$work/soid" ./cmd/soid

echo "sketch-smoke: building index and sketch"
"$work/sphere" -graph "$work/g.tsv" -samples 400 \
  -build-index "$work/g.idx" -sketch-out "$work/g.skc" -sketch-k 512

# --- start the daemon with the sketch loaded -------------------------------
echo "sketch-smoke: starting soid -sketch"
"$work/soid" -graph "$work/g.tsv" -index "$work/g.idx" -sketch "$work/g.skc" \
  -addr 127.0.0.1:0 -addr-file "$work/addr" -drain-timeout 10s 2> "$work/soid.log" &
soid_pid=$!

for _ in $(seq 1 100); do
  [ -s "$work/addr" ] && break
  kill -0 "$soid_pid" 2>/dev/null || { cat "$work/soid.log" >&2; fail "soid died during startup"; }
  sleep 0.1
done
[ -s "$work/addr" ] || fail "timed out waiting for the address file"
addr="$(cat "$work/addr")"
for _ in $(seq 1 50); do
  curl -fsS "http://$addr/healthz" > /dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$addr/healthz" > /dev/null || fail "healthz never came up"
echo "sketch-smoke: soid serving on $addr"

get() { curl -fsS "http://$addr$1"; }

[ "$(get /v1/info | jq .sketch_loaded)" = true ] || fail "/v1/info sketch_loaded is not true"
[ "$(get /readyz | jq .sketch_loaded)" = true ] || fail "/readyz sketch_loaded is not true"

# --- spread: sketch answer within its own bound of the dense answer --------
get '/v1/spread?seeds=1,2,3&estimator=sketch' > "$work/spread.json"
[ "$(jq -r .estimator "$work/spread.json")" = sketch ] || fail "spread estimator is not sketch"
sp="$(jq -r .spread "$work/spread.json")"
eb="$(jq -r .error_bound "$work/spread.json")"
awk -v e="$eb" 'BEGIN{exit !(e>0)}' || fail "spread error_bound $eb not positive"
dense="$(get '/v1/spread?seeds=1,2,3&method=index' | jq -r .spread)"
within "$sp" "$dense" "$eb" || fail "sketch spread $sp vs dense $dense outside bound $eb"
echo "sketch-smoke: spread $sp within $eb of dense $dense"

# --- sphere: estimated size within its bound of the dense singleton spread -
get '/v1/sphere/5?estimator=sketch' > "$work/sphere.json"
[ "$(jq -r .source "$work/sphere.json")" = sketch ] || fail "sphere source is not sketch"
sz="$(jq -r .estimated_size "$work/sphere.json")"
eb="$(jq -r .error_bound "$work/sphere.json")"
dense="$(get '/v1/spread?seeds=5&method=index' | jq -r .spread)"
within "$sz" "$dense" "$eb" || fail "sketch sphere size $sz vs dense $dense outside bound $eb"
echo "sketch-smoke: sphere size $sz within $eb of dense $dense"

# --- seeds: SKIM objective within its bound of the selection's dense spread
get '/v1/seeds?k=3&estimator=sketch' > "$work/seeds.json"
[ "$(jq -r .estimator "$work/seeds.json")" = sketch ] || fail "seeds estimator is not sketch"
[ "$(jq '.seeds | length' "$work/seeds.json")" = 3 ] || fail "seed selection is not 3 seeds"
obj="$(jq -r .objective "$work/seeds.json")"
eb="$(jq -r .error_bound "$work/seeds.json")"
picked="$(jq -r '.seeds | join(",")' "$work/seeds.json")"
dense="$(get "/v1/spread?seeds=$picked&method=index" | jq -r .spread)"
within "$obj" "$dense" "$eb" || fail "sketch objective $obj for {$picked} vs dense $dense outside bound $eb"
echo "sketch-smoke: seeds {$picked} objective $obj within $eb of dense $dense"

# --- estimator=sketch without a sketch => 409 conflict ---------------------
"$work/soid" -graph "$work/g.tsv" -index "$work/g.idx" \
  -addr 127.0.0.1:0 -addr-file "$work/addr2" -drain-timeout 10s 2> "$work/bare.log" &
bare_pid=$!
for _ in $(seq 1 100); do
  [ -s "$work/addr2" ] && break
  kill -0 "$bare_pid" 2>/dev/null || { cat "$work/bare.log" >&2; fail "bare soid died during startup"; }
  sleep 0.1
done
addr2="$(cat "$work/addr2")"
for _ in $(seq 1 50); do
  curl -fsS "http://$addr2/healthz" > /dev/null 2>&1 && break
  sleep 0.1
done
code="$(curl -s -o "$work/conflict" -w '%{http_code}' "http://$addr2/v1/spread?seeds=1&estimator=sketch")"
[ "$code" = 409 ] || { cat "$work/conflict" >&2; fail "sketchless estimator=sketch got $code, want 409"; }
echo "sketch-smoke: sketchless daemon refused estimator=sketch with 409"
kill -TERM "$bare_pid"; wait "$bare_pid" || fail "bare soid did not drain cleanly"
bare_pid=""

# --- graceful drain --------------------------------------------------------
kill -TERM "$soid_pid"
drain_code=0
wait "$soid_pid" || drain_code=$?
[ "$drain_code" = 0 ] || { cat "$work/soid.log" >&2; fail "soid exited $drain_code on SIGTERM, want 0"; }
soid_pid=""
echo "sketch-smoke: PASS"
