#!/usr/bin/env bash
# End-to-end smoke for the socket front end + persistent store:
#   1. boot schedule_server on an ephemeral port with a fresh store,
#   2. send it sources nested far past the parser's depth bound (each must
#      come back as a compile_error), then drive it with the load generator
#      over real sockets — which also proves the server survived,
#   3. SIGTERM and verify the graceful-drain handshake (exit 0),
#   4. restart on the same store and verify the warm run recovers records
#      and answers without errors or sheds,
#   5. hit the warm server with a short open-arrival (Poisson) run over a
#      few hundred connections and sanity-bound its p99.
#
# Usage: scripts/server_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
SERVER=$BUILD_DIR/examples/schedule_server
LOADGEN=$BUILD_DIR/bench/load_gen
[[ -x $SERVER && -x $LOADGEN ]] || {
  echo "server_smoke: build schedule_server and load_gen first" >&2
  exit 2
}

WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  [[ -n $SERVER_PID ]] && kill -KILL "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

STORE=$WORK/smoke_store.lsr

start_server() {
  "$SERVER" --port=0 --print-port --store="$STORE" \
    >"$WORK/port.txt" 2>"$WORK/server.log" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s $WORK/port.txt ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
      echo "server_smoke: server died at startup" >&2
      cat "$WORK/server.log" >&2
      exit 1
    }
    sleep 0.05
  done
  PORT=$(cat "$WORK/port.txt")
  [[ -n $PORT ]] || { echo "server_smoke: no port published" >&2; exit 1; }
}

stop_server() { # graceful: SIGTERM must drain and exit 0
  kill -TERM "$SERVER_PID"
  local rc=0
  wait "$SERVER_PID" || rc=$?
  SERVER_PID=
  if [[ $rc -ne 0 ]]; then
    echo "server_smoke: server exited $rc on SIGTERM" >&2
    cat "$WORK/server.log" >&2
    exit 1
  fi
  grep -q "drained cleanly" "$WORK/server.log" || {
    echo "server_smoke: no drain confirmation in server log" >&2
    cat "$WORK/server.log" >&2
    exit 1
  }
}

run_load() {
  # --corpus=0: the 43 suite kernels only, so the bnb ladder stays cheap.
  "$LOADGEN" --port="$PORT" --connections=4 --pipeline=8 \
    --engine=bnb --corpus=0 --json | tee "$WORK/load.json"
  grep -q '"errors":0' "$WORK/load.json" || {
    echo "server_smoke: load generator saw response errors" >&2
    exit 1
  }
}

send_hostile() {
  # The three hostile nesting shapes that fit under the server's 1 MiB line
  # cap: 100,000 nested parentheses (~200 KB), a 100,000-term sum (~700 KB)
  # and 100,000 unary minus signs (~100 KB).
  python3 - "$PORT" <<'PY'
import json, socket, sys

n = 100000
shapes = {
    "parentheses": "(" * n + "y[i]" + ")" * n,
    "sum": " + ".join(["y[i]"] * n),
    "unary minus": "-" * n + "y[i]",
}
with socket.create_connection(("127.0.0.1", int(sys.argv[1]))) as conn:
    stream = conn.makefile("rwb")
    for name, rhs in shapes.items():
        source = "loop i = 2, n\n  x[i] = " + rhs + "\nend"
        stream.write((json.dumps({"source": source}) + "\n").encode())
        stream.flush()
        response = stream.readline().decode()
        if '"error_code":"compile_error"' not in response:
            sys.exit("server_smoke: nested %s got %r" % (name, response[:200]))
        print("nested %s: compile_error" % name)
PY
}

run_open_load() {
  # Open-arrival sanity: a couple hundred persistent connections of
  # Poisson slack traffic against the warm server. Everything must be
  # answered (no errors, nothing shed) with a sub-second p99 — a loose
  # bound that still catches event-loop stalls; the tight tail gate lives
  # in perf_report's full mode.
  "$LOADGEN" --port="$PORT" --open --connections=200 --rps=500 \
    --requests=2000 --engine=slack --corpus=0 --json \
    | tee "$WORK/open.json"
  grep -q '"errors":0' "$WORK/open.json" || {
    echo "server_smoke: open-arrival run saw response errors" >&2
    exit 1
  }
  grep -q '"shed":0' "$WORK/open.json" || {
    echo "server_smoke: open-arrival run had requests shed" >&2
    exit 1
  }
  P99=$(sed -n 's/.*"p99_us":\([0-9]*\).*/\1/p' "$WORK/open.json")
  if [[ -z $P99 || $P99 -ge 1000000 ]]; then
    echo "server_smoke: open-arrival p99 ${P99:-unparsed}us not < 1s" >&2
    exit 1
  fi
}

echo "== cold pass =="
start_server
send_hostile
run_load
stop_server

echo "== warm restart =="
start_server
grep -q "records recovered" "$WORK/server.log" || {
  echo "server_smoke: restart did not recover store records" >&2
  cat "$WORK/server.log" >&2
  exit 1
}
if grep -q "(0 records recovered)" "$WORK/server.log"; then
  echo "server_smoke: store recovered zero records on restart" >&2
  cat "$WORK/server.log" >&2
  exit 1
fi
run_load

echo "== open-arrival pass =="
run_open_load
stop_server

echo "server_smoke: OK"
