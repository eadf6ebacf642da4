#!/usr/bin/env bash
# Exit-code contract smoke test for kronlab_gen.
#
# Scripts (CI stress steps, EXPERIMENTS recipes) branch on the generator's
# exit code, so the convention is load-bearing:
#   0 = success, 2 = usage / bad spec, 3 = io error, 4 = validation
#   failure (including durable-store corruption and stream drift).
#
# Usage: test_gen_cli.sh /path/to/kronlab_gen
set -u

GEN=${1:?usage: test_gen_cli.sh /path/to/kronlab_gen}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
fails=0

# expect <code> <label> <args...>
expect() {
  local want=$1 label=$2
  shift 2
  "$GEN" "$@" >"$WORK/out" 2>"$WORK/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label — expected exit $want, got $got" >&2
    sed 's/^/    /' "$WORK/err" >&2
    fails=$((fails + 1))
  else
    echo "ok: $label (exit $got)"
  fi
}

# --- 0: successful runs -----------------------------------------------------
expect 0 "summary run" \
  --left tritail:1 --right kbip:2,3 --summary
expect 0 "durable generation" \
  --left tritail:1 --right kbip:2,3 --out "$WORK/store" \
  --shards 2 --segment-edges 32
expect 0 "durable verify" \
  --left tritail:1 --right kbip:2,3 --out "$WORK/store" --verify
expect 0 "resume of a complete store is a no-op" \
  --left tritail:1 --right kbip:2,3 --out "$WORK/store" --resume \
  --shards 2 --segment-edges 32

# --- 2: usage errors --------------------------------------------------------
expect 2 "missing required flags" --summary
expect 2 "unknown flag" --left tritail:1 --right kbip:2,3 --bogus
expect 2 "bad mode" --left tritail:1 --right kbip:2,3 --mode x
expect 2 "bad spec" --left nosuch:1 --right kbip:2,3
expect 2 "hypercube dimension out of range" \
  --left hypercube:4294967300 --right kbip:2,3
expect 2 "--resume without --out" --left tritail:1 --right kbip:2,3 --resume
expect 2 "--resume with --verify" \
  --left tritail:1 --right kbip:2,3 --out "$WORK/store" --resume --verify
expect 2 "--scale without raw mode" \
  --left tritail:1 --right kbip:2,3 --scale 2 --mode i

# --- 3: io errors -----------------------------------------------------------
expect 3 "edge list into unwritable path" \
  --left tritail:1 --right kbip:2,3 --edges "$WORK/nodir/edges.el"
expect 3 "fresh run refuses an existing store" \
  --left tritail:1 --right kbip:2,3 --out "$WORK/store" \
  --shards 2 --segment-edges 32
expect 3 "verify of a store with no manifest" \
  --left tritail:1 --right kbip:2,3 --out "$WORK/empty" --verify

# --- 4: validation failures -------------------------------------------------
expect 4 "mode i rejects a bipartite left factor" \
  --left kbip:2,2 --right kbip:2,3 --mode i
# Resuming with a different generation spec must refuse, not overwrite.
expect 4 "resume against a different spec" \
  --left tritail:2 --right kbip:2,3 --out "$WORK/store" --resume \
  --shards 2 --segment-edges 32
# A flipped payload byte must fail checksum verification.
seg=$(ls "$WORK/store"/shard-0000-seg-*.krnlseg | head -n1)
printf '\xff' | dd of="$seg" bs=1 seek=64 count=1 conv=notrunc status=none
expect 4 "verify catches a corrupted segment" \
  --left tritail:1 --right kbip:2,3 --out "$WORK/store" --verify

if [ "$fails" -ne 0 ]; then
  echo "$fails exit-code contract check(s) failed" >&2
  exit 1
fi
echo "all kronlab_gen exit-code contract checks passed"
