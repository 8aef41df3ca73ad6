#!/usr/bin/env bash
# Corruption-repair smoke test for every blockfile kind. Index (SOIIDX05):
# build one on disk, assert soifsck's summary names the model and graph
# fingerprint it records (the one soid logs), flip a byte inside one world
# block with dd, assert
# soifsck pinpoints exactly that block, serve the corrupt file with soid,
# whose load quarantines the bad world, and observe degraded 206 answers
# (worlds_quarantined + widened error_bound), repair the file with
# soifsck -repair, and assert the
# repaired file serves 200. Sphere store (SOISPH03) and sketch (SOISKC02):
# flip a byte inside a node-range block, assert soifsck names that block,
# -repair refuses with the rebuild command (a node-range block cannot be
# dropped) and soid refuses to start on the file; then flip the store's
# footer and assert the repaired store verifies clean.
#
# Run via `make fsck-smoke`. Requires only the go toolchain and curl.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
soid_pid=""
cleanup() {
  [ -n "$soid_pid" ] && kill -9 "$soid_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "fsck-smoke: FAIL: $*" >&2
  # Capture logs and the daemon's retained traces for offline triage (CI
  # uploads SOI_SMOKE_ARTIFACTS when the gauntlet fails).
  if [ -n "${SOI_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SOI_SMOKE_ARTIFACTS"
    cp "$work"/*.log "$SOI_SMOKE_ARTIFACTS"/ 2>/dev/null || true
    if [ -n "${addr:-}" ]; then
      curl -s "http://$addr/debug/traces" \
        > "$SOI_SMOKE_ARTIFACTS/soid-traces.json" 2>/dev/null || true
    fi
    echo "fsck-smoke: artifacts captured in $SOI_SMOKE_ARTIFACTS" >&2
  fi
  exit 1
}

# --- artifacts: a 30-node ring with shortcuts and a 200-world index -------
awk 'BEGIN {
  for (i = 0; i < 30; i++) printf "%d\t%d\t0.8\n", i, (i + 1) % 30;
  for (i = 0; i < 30; i += 3) printf "%d\t%d\t0.3\n", i, (i + 7) % 30;
}' > "$work/g.tsv"

echo "fsck-smoke: building binaries"
go build -o "$work/sphere" ./cmd/sphere
go build -o "$work/soid" ./cmd/soid
go build -o "$work/soifsck" ./cmd/soifsck

echo "fsck-smoke: building index"
"$work/sphere" -graph "$work/g.tsv" -samples 200 -build-index "$work/g.idx" > /dev/null

# --- clean file verifies clean --------------------------------------------
"$work/soifsck" "$work/g.idx" 2> "$work/fsck0.log" \
  || { cat "$work/fsck0.log" >&2; fail "soifsck rejected a freshly built index"; }
grep -q "clean (200 worlds)" "$work/fsck0.log" || fail "no clean verdict for the fresh index"
idx_graph="$(sed -n 's/.*: SOIIDX05 nodes=30 worlds=200 model=IC graph=\([0-9a-f]\{16\}\) .*/\1/p' "$work/fsck0.log")"
[ -n "$idx_graph" ] || { cat "$work/fsck0.log" >&2; fail "soifsck summary does not name SOIIDX05, model=IC and the graph fingerprint"; }
echo "fsck-smoke: fresh SOIIDX05 index verifies clean (model=IC graph=$idx_graph)"

# --- corrupt one block with dd --------------------------------------------
# soifsck -v prints one "world N: off=X len=Y" line per block; target the
# middle of world 7's block.
read -r off len < <("$work/soifsck" -v "$work/g.idx" 2>&1 \
  | awk 'match($0, /world 7: off=([0-9]+) len=([0-9]+)/) {
      s = substr($0, RSTART, RLENGTH);
      split(s, a, /[= ]/); print a[4], a[6] }')
[ -n "$off" ] && [ -n "$len" ] || fail "could not locate world 7 in soifsck -v output"
target=$((off + len / 2))
orig=$(dd if="$work/g.idx" bs=1 skip="$target" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((orig ^ 255)))" \
  | dd of="$work/g.idx" bs=1 seek="$target" count=1 conv=notrunc 2>/dev/null
echo "fsck-smoke: flipped byte at offset $target inside world 7's block"

# --- soifsck reports exactly the corrupted block --------------------------
code=0; "$work/soifsck" "$work/g.idx" 2> "$work/fsck1.log" || code=$?
[ "$code" = 1 ] || { cat "$work/fsck1.log" >&2; fail "soifsck exited $code on a corrupt index, want 1"; }
grep -q "world 7: .*CORRUPT" "$work/fsck1.log" || { cat "$work/fsck1.log" >&2; fail "world 7 not flagged"; }
grep -q "1 of 200 worlds corrupt" "$work/fsck1.log" || { cat "$work/fsck1.log" >&2; fail "wrong corruption summary"; }
echo "fsck-smoke: soifsck pinpointed the corrupt block"

start_soid() { # $1: index file
  : > "$work/addr"
  "$work/soid" -graph "$work/g.tsv" -index "$1" \
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
    curl -fsS "http://$addr/readyz" > /dev/null 2>&1 && break
    sleep 0.1
  done
}

stop_soid() {
  kill -TERM "$soid_pid"
  wait "$soid_pid" || { cat "$work/soid.log" >&2; fail "soid did not drain cleanly"; }
  soid_pid=""
}

get_code() { curl -s -o "$work/body" -w '%{http_code}' "http://$addr$1"; }

# --- soid serves the corrupt file degraded: 206 + widened bound -----------
echo "fsck-smoke: serving the corrupt index with soid"
start_soid "$work/g.idx"
code="$(get_code '/v1/spread?seeds=1,2')"
[ "$code" = 206 ] || { cat "$work/body" >&2; fail "spread over corrupt index got $code, want 206"; }
grep -q '"partial":true' "$work/body" || fail "206 body lacks partial flag"
grep -q '"worlds_quarantined":1' "$work/body" || { cat "$work/body" >&2; fail "206 body lacks worlds_quarantined"; }
grep -q '"error_bound"' "$work/body" || fail "206 body lacks the widened error bound"
code="$(get_code '/v1/info')"
[ "$code" = 200 ] || fail "info got $code"
grep -q '"worlds_quarantined":1' "$work/body" || { cat "$work/body" >&2; fail "info does not report the quarantine"; }
grep -q "QUARANTINE world 7" "$work/soid.log" || { cat "$work/soid.log" >&2; fail "no quarantine log line"; }
grep -q "serving on .* graph=$idx_graph .* model=IC " "$work/soid.log" \
  || { cat "$work/soid.log" >&2; fail "soid's serving line does not pair the graph soifsck names with model=IC"; }
stop_soid
echo "fsck-smoke: corrupt index served 206 with worlds_quarantined=1"

# --- repair drops the bad world and the result verifies clean -------------
code=0; "$work/soifsck" -repair "$work/fixed.idx" "$work/g.idx" 2> "$work/fsck2.log" || code=$?
[ "$code" = 1 ] || { cat "$work/fsck2.log" >&2; fail "repair run exited $code, want 1 (corruption was found)"; }
grep -q "kept 199 of 200 worlds" "$work/fsck2.log" || { cat "$work/fsck2.log" >&2; fail "unexpected repair summary"; }
"$work/soifsck" "$work/fixed.idx" 2> "$work/fsck3.log" \
  || { cat "$work/fsck3.log" >&2; fail "repaired index does not verify clean"; }
grep -q "clean (199 worlds)" "$work/fsck3.log" || fail "no clean verdict for the repaired index"
grep -q ": SOIIDX05 nodes=30 worlds=199 model=IC graph=$idx_graph " "$work/fsck3.log" \
  || { cat "$work/fsck3.log" >&2; fail "the repaired index lost its model or graph fingerprint"; }
echo "fsck-smoke: repair kept 199 of 200 worlds and verifies clean"

# --- the repaired file serves 200 again ------------------------------------
echo "fsck-smoke: serving the repaired index"
start_soid "$work/fixed.idx"
code="$(get_code '/v1/spread?seeds=1,2')"
[ "$code" = 200 ] || { cat "$work/body" >&2; fail "spread over repaired index got $code, want 200"; }
code="$(get_code '/v1/info')"
grep -q '"worlds_quarantined":0' "$work/body" || { cat "$work/body" >&2; fail "repaired index still reports quarantines"; }
grep -q '"worlds":199' "$work/body" || { cat "$work/body" >&2; fail "repaired index world count wrong"; }
stop_soid
echo "fsck-smoke: repaired index serves 200"

# --- sphere store and sketch: node-range blocks ---------------------------
flip_byte() { # $1: file, $2: offset
  local b
  b=$(dd if="$1" bs=1 skip="$2" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
  printf "$(printf '\\%03o' $((b ^ 255)))" | dd of="$1" bs=1 seek="$2" count=1 conv=notrunc 2>/dev/null
}

echo "fsck-smoke: building a sphere store and a sketch over the repaired index"
"$work/sphere" -graph "$work/g.tsv" -index "$work/fixed.idx" -all \
  -store "$work/g.spheres" -out /dev/null
"$work/sphere" -graph "$work/g.tsv" -index "$work/fixed.idx" -sketch-out "$work/g.skc" > /dev/null
cp "$work/g.spheres" "$work/clean.spheres"

for kind in spheres:-spheres skc:-sketch; do
  ext="${kind%%:*}"; flag="${kind#*:}"; f="$work/g.$ext"
  "$work/soifsck" "$f" 2> "$work/$ext-0.log" \
    || { cat "$work/$ext-0.log" >&2; fail "soifsck rejected a fresh .$ext file"; }
  grep -q "clean (1 blocks)" "$work/$ext-0.log" || { cat "$work/$ext-0.log" >&2; fail "no clean verdict for the fresh .$ext file"; }
  # The 30-node graph fits one node-range block, "nodes 0-29".
  read -r off len < <("$work/soifsck" -v "$f" 2>&1 \
    | awk 'match($0, /nodes 0-29: off=([0-9]+) len=([0-9]+)/) {
        s = substr($0, RSTART, RLENGTH);
        split(s, a, /[= ]/); print a[4], a[6] }')
  [ -n "$off" ] && [ -n "$len" ] || fail "could not locate nodes 0-29 in soifsck -v output for .$ext"
  flip_byte "$f" $((off + len / 2))
  code=0; "$work/soifsck" "$f" 2> "$work/$ext-1.log" || code=$?
  [ "$code" = 1 ] || { cat "$work/$ext-1.log" >&2; fail "soifsck exited $code on a corrupt .$ext file, want 1"; }
  grep -q "nodes 0-29: .*CORRUPT" "$work/$ext-1.log" || { cat "$work/$ext-1.log" >&2; fail "corrupt .$ext block not named"; }
  code=0; "$work/soifsck" -repair "$work/fixed.$ext" "$f" 2> "$work/$ext-2.log" || code=$?
  [ "$code" = 2 ] || { cat "$work/$ext-2.log" >&2; fail "repair of a block-corrupt .$ext file exited $code, want 2"; }
  grep -q 'rebuild the file with `sphere ' "$work/$ext-2.log" || { cat "$work/$ext-2.log" >&2; fail "refused .$ext repair does not name the rebuild command"; }
  code=0
  timeout 30 "$work/soid" -graph "$work/g.tsv" -index "$work/fixed.idx" "$flag" "$f" \
    -addr 127.0.0.1:0 2> "$work/$ext-soid.log" || code=$?
  [ "$code" = 1 ] || { cat "$work/$ext-soid.log" >&2; fail "soid on a corrupt .$ext file exited $code, want a startup refusal (1)"; }
  grep -q "corrupt" "$work/$ext-soid.log" || { cat "$work/$ext-soid.log" >&2; fail "soid's refusal does not report the corruption"; }
  echo "fsck-smoke: corrupt .$ext block named, repair refused, soid refused to start"
done

# --- a store's footer is rewritten clean ----------------------------------
cp "$work/clean.spheres" "$work/g.spheres"
flip_byte "$work/g.spheres" $(($(wc -c < "$work/g.spheres") - 1))
code=0; "$work/soifsck" "$work/g.spheres" 2> "$work/foot1.log" || code=$?
[ "$code" = 1 ] || { cat "$work/foot1.log" >&2; fail "soifsck exited $code on a store with a bad footer, want 1"; }
grep -q "footer CORRUPT" "$work/foot1.log" || { cat "$work/foot1.log" >&2; fail "bad footer not reported"; }
code=0; "$work/soifsck" -repair "$work/fixed.spheres" "$work/g.spheres" 2> "$work/foot2.log" || code=$?
[ "$code" = 1 ] || { cat "$work/foot2.log" >&2; fail "footer repair exited $code, want 1 (corruption was found)"; }
"$work/soifsck" "$work/fixed.spheres" 2> "$work/foot3.log" \
  || { cat "$work/foot3.log" >&2; fail "repaired store does not verify clean"; }
grep -q "clean (1 blocks)" "$work/foot3.log" || fail "no clean verdict for the repaired store"
cmp -s "$work/fixed.spheres" "$work/clean.spheres" || fail "repaired store differs from the original"
echo "fsck-smoke: store footer repaired clean"
echo "fsck-smoke: PASS"
