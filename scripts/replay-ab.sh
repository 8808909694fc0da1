#!/bin/sh
# replay-ab: replay-driven A/B comparison of pipeline configurations
# over one recorded capture. Records a simulated run into an ingest
# WAL, then replays the identical bytes through four configs — both
# eigensolvers (jacobi = the pre-QR reference, qr = the tridiagonal
# hot path) crossed with 1-shard and 4-shard fusion — and compares fix
# parity hashes and latency digests.
#
# Contract asserted here, at the binary level:
#   - the fusion shard count NEVER moves the parity hash (sharding
#     decides which goroutine fuses a sequence, not the arithmetic);
#   - both eigensolver configs must produce the same number of fixes
#     over the capture; their parity hashes are reported side by side
#     (they may legitimately differ inside the documented tolerance —
#     see DESIGN.md "Scaling the hot path").
set -eu

HTTP_ADDR="${HTTP_ADDR:-127.0.0.1:18082}"
LLRP_ADDR="${LLRP_ADDR:-127.0.0.1:15086}"
SHARDS="${SHARDS:-4}"
WORK="$(mktemp -d)"
WALDIR="$WORK/wal"
LOG="$WORK/dwatchd.log"

fetch_body() {
    if command -v curl >/dev/null 2>&1; then
        curl -sS --max-time 5 "$1" 2>/dev/null || true
    else
        wget -q -T 5 -O - "$1" 2>/dev/null || true
    fi
}

cleanup() {
    [ -n "${PID:-}" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building dwatchd and dwatch-replay"
go build -o "$WORK/dwatchd" ./cmd/dwatchd
go build -o "$WORK/dwatch-replay" ./cmd/dwatch-replay

echo "== recording a simulated run into $WALDIR"
"$WORK/dwatchd" -listen "$LLRP_ADDR" -env table -simulate -rounds 200 \
    -wal-dir "$WALDIR" -http "$HTTP_ADDR" >"$LOG" 2>&1 &
PID=$!

i=0
until fetch_body "http://$HTTP_ADDR/api/v1/table/wal" |
    grep -Eq '"appended_records": *([3-9][0-9]|[0-9]{3,})'; do
    i=$((i + 1))
    if [ "$i" -ge 200 ]; then
        echo "FAIL: WAL never accumulated 30 reports" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "FAIL: dwatchd exited during recording" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=
echo "ok: capture recorded"

field() {
    sed -n "s/.*\"$2\": *\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p" "$1" | head -n 1
}

replay() {
    # $1 = output json, $2 = eigensolver, $3 = shard count
    "$WORK/dwatch-replay" -wal-dir "$WALDIR/table" -env table -json \
        -eigensolver "$2" -asm-shards "$3" >"$1"
}

echo "== replaying the capture through 4 configs"
replay "$WORK/qr-1.json" qr 1
replay "$WORK/qr-N.json" qr "$SHARDS"
replay "$WORK/jacobi-1.json" jacobi 1
replay "$WORK/jacobi-N.json" jacobi "$SHARDS"

for f in qr-1 qr-N jacobi-1 jacobi-N; do
    if [ -z "$(field "$WORK/$f.json" fix_parity)" ]; then
        echo "FAIL: $f replay summary has no fix_parity" >&2
        cat "$WORK/$f.json" >&2
        exit 1
    fi
    if ! grep -Eq '"fixes": *[1-9]' "$WORK/$f.json"; then
        echo "FAIL: $f replay produced no fixes" >&2
        cat "$WORK/$f.json" >&2
        exit 1
    fi
done

# Shard-count independence: bit-identical parity within each solver.
for solver in qr jacobi; do
    P1="$(field "$WORK/$solver-1.json" fix_parity)"
    PN="$(field "$WORK/$solver-N.json" fix_parity)"
    if [ "$P1" != "$PN" ]; then
        echo "FAIL: $solver parity moved with shard count: 1-shard $P1 != $SHARDS-shard $PN" >&2
        exit 1
    fi
    echo "ok: $solver parity shard-independent ($P1)"
done

# Eigensolver A/B: same fix count required; hashes + latency reported.
FQ="$(field "$WORK/qr-1.json" fixes)"
FJ="$(field "$WORK/jacobi-1.json" fixes)"
if [ "$FQ" != "$FJ" ]; then
    echo "FAIL: fix counts diverge across eigensolvers: qr $FQ != jacobi $FJ" >&2
    exit 1
fi
echo "ok: both eigensolvers fixed $FQ sequences"

summarize() {
    printf '%-10s parity=%.16s... reports/s=%s compute_p50=%ss fuse_p50=%ss\n' \
        "$1" "$(field "$2" fix_parity)" "$(field "$2" reports_per_sec)" \
        "$(field "$2" P50)" "$(sed -n '/"fuse_latency"/,$p' "$2" | sed -n "s/.*\"P50\": *\([^,}]*\).*/\1/p" | head -n 1)"
}

echo "== A/B summary (identical capture, unthrottled)"
summarize "qr" "$WORK/qr-N.json"
summarize "jacobi" "$WORK/jacobi-N.json"

PQ="$(field "$WORK/qr-1.json" fix_parity)"
PJ="$(field "$WORK/jacobi-1.json" fix_parity)"
if [ "$PQ" = "$PJ" ]; then
    echo "note: eigensolver parity hashes agree bit-for-bit on this capture"
else
    echo "note: eigensolver parity hashes differ (expected: documented tolerance, see DESIGN.md)"
fi

echo "replay-ab: PASS"
