#!/bin/sh
# router-smoke: boot three icrowd-server shards (each with its own
# -data-dir) plus icrowd-router in front of them, then exercise the sharded
# surface end-to-end: projects created through the router land on exactly
# one shard, every shard owns at least one, a crowd runs through each
# project, a killed shard takes only its own projects down (typed
# shard_unavailable 503) while the others keep serving, and a restart
# re-admits it. `make router-smoke` runs this; it is part of `make check`.
#
# Environment knobs: GO (toolchain), PORT (router port; shards use
# PORT+1..PORT+3).
set -eu

GO=${GO:-go}
PORT=${PORT:-18983}
S1=$((PORT + 1))
S2=$((PORT + 2))
S3=$((PORT + 3))

BIN=$(mktemp -d)
PIDS=
cleanup() {
	for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
	rm -rf "$BIN"
}
trap cleanup EXIT INT TERM

$GO build -o "$BIN/icrowd-server" ./cmd/icrowd-server
$GO build -o "$BIN/icrowd-router" ./cmd/icrowd-router

start_shard() {
	# start_shard N -> pid on stdout (shard N listens on PORT+N and keeps
	# its projects under $BIN/shardN).
	"$BIN/icrowd-server" -addr "127.0.0.1:$((PORT + $1))" -strategy randommv -k 3 \
		-data-dir "$BIN/shard$1" >>"$BIN/shard$1.log" 2>&1 &
	echo $!
}

SHARD1_PID=$(start_shard 1)
PIDS="$SHARD1_PID"
PIDS="$PIDS $(start_shard 2)"
PIDS="$PIDS $(start_shard 3)"

"$BIN/icrowd-router" -addr "127.0.0.1:$PORT" \
	-shards "http://127.0.0.1:$S1,http://127.0.0.1:$S2,http://127.0.0.1:$S3" \
	-probe-interval 250ms >"$BIN/router.log" 2>&1 &
PIDS="$PIDS $!"

BASE="http://127.0.0.1:$PORT"

fail() {
	echo "router-smoke: $1" >&2
	echo "router-smoke: router log follows" >&2
	cat "$BIN/router.log" >&2
	exit 1
}

# api METHOD URL [JSON-BODY] -> body on stdout; the HTTP code goes to
# $BIN/code.
api() {
	if [ $# -ge 3 ]; then
		curl -s -o "$BIN/resp.json" -w '%{http_code}' -X "$1" \
			-H 'Content-Type: application/json' -d "$3" "$2" >"$BIN/code"
	else
		curl -s -o "$BIN/resp.json" -w '%{http_code}' -X "$1" "$2" >"$BIN/code"
	fi
	cat "$BIN/resp.json"
}

code() { curl -s -o /dev/null -w '%{http_code}' "$1" 2>/dev/null || true; }

# Wait for the fleet to come up (readyz merges every shard's probe).
ready=0
for _ in $(seq 1 80); do
	if [ "$(code "$BASE/v1/readyz")" = 200 ]; then
		ready=1
		break
	fi
	sleep 0.25
done
[ "$ready" = 1 ] || fail "fleet never became ready"

# Create projects through the router until every shard owns at least one.
# A direct GET on each shard must find every project on exactly one of
# them: the router creates a project on its ring owner only.
OWNERS=
own1=0
own2=0
own3=0
n=0
while [ "$own1" = 0 ] || [ "$own2" = 0 ] || [ "$own3" = 0 ]; do
	n=$((n + 1))
	[ "$n" -le 30 ] || fail "30 projects and a shard still owns none ($own1/$own2/$own3)"
	p="smoke-p$n"
	body=$(api PUT "$BASE/v1/projects/$p")
	[ "$(cat "$BIN/code")" = 201 ] || fail "create $p -> HTTP $(cat "$BIN/code"): $body"
	owner=
	for s in 1 2 3; do
		if [ "$(code "http://127.0.0.1:$((PORT + s))/v1/projects/$p")" = 200 ]; then
			[ -z "$owner" ] || fail "project $p exists on shards $owner and $s"
			owner=$s
		fi
	done
	[ -n "$owner" ] || fail "project $p exists on no shard"
	eval "own$owner=\$((own$owner + 1))"
	OWNERS="$OWNERS $p:$owner"
done

# Push a small crowd through every project: every assign must land and
# every submit must be accepted, whichever shard owns the project.
for entry in $OWNERS; do
	p=${entry%:*}
	for i in $(seq 1 6); do
		w="smoke-w$i"
		assign=$(api GET "$BASE/v1/projects/$p/assign?workerId=$w")
		[ "$(cat "$BIN/code")" = 200 ] || fail "$p assign $w -> HTTP $(cat "$BIN/code"): $assign"
		case "$assign" in
		*'"assigned":true'*) ;;
		*) fail "$p assign $w did not assign: $assign" ;;
		esac
		tid=$(printf '%s' "$assign" | sed -n 's/.*"taskId":\([0-9]*\).*/\1/p')
		body=$(api POST "$BASE/v1/projects/$p/submit" "{\"workerId\":\"$w\",\"taskId\":$tid,\"answer\":\"YES\"}")
		[ "$(cat "$BIN/code")" = 200 ] || fail "$p submit $w -> HTTP $(cat "$BIN/code"): $body"
	done
	status=$(api GET "$BASE/v1/projects/$p/status")
	case "$status" in
	*'"strategy":"RandomMV"'*) ;;
	*) fail "$p status -> HTTP $(cat "$BIN/code"): $status" ;;
	esac
done

# Fleet-wide reads: the list holds each project once, metrics carry a
# shard label per origin, /v1/shards reports all three up.
list=$(api GET "$BASE/v1/projects")
for entry in $OWNERS; do
	p=${entry%:*}
	[ "$(printf '%s' "$list" | grep -o "\"id\":\"$p\"" | wc -l)" = 1 ] ||
		fail "project list does not hold $p exactly once: $list"
done
metrics=$(api GET "$BASE/v1/metrics")
case "$metrics" in
*"shard=\"http://127.0.0.1:$S1\""*) ;;
*) fail "metrics missing shard label for shard 1" ;;
esac
case "$metrics" in
*'shard="router"'*) ;;
*) fail "metrics missing the router's own series" ;;
esac
shardsjson=$(api GET "$BASE/v1/shards")
case "$shardsjson" in
*'"up":false'*) fail "a shard reports down while the fleet is whole: $shardsjson" ;;
esac

# Kill shard 1: its projects must degrade to the typed 503 (and nothing
# else), the other shards' projects must keep serving, and readyz must
# flip to 503.
kill "$SHARD1_PID"
wait "$SHARD1_PID" 2>/dev/null || true
for entry in $OWNERS; do
	p=${entry%:*}
	body=$(api GET "$BASE/v1/projects/$p/assign?workerId=smoke-kill")
	got=$(cat "$BIN/code")
	if [ "${entry#*:}" = 1 ]; then
		[ "$got" = 503 ] || fail "$p on the dead shard -> HTTP $got: $body"
		case "$body" in
		*'"code":"shard_unavailable"'*) ;;
		*) fail "503 without shard_unavailable code: $body" ;;
		esac
	else
		[ "$got" = 200 ] || fail "$p on a live shard -> HTTP $got: $body"
	fi
done
for _ in $(seq 1 40); do
	[ "$(code "$BASE/v1/readyz")" = 503 ] && break
	sleep 0.25
done
[ "$(code "$BASE/v1/readyz")" = 503 ] || fail "readyz stayed 200 with a dead shard"

# Restart shard 1 from its data directory at the same address: the router
# must re-admit it, the fleet must report ready again, and its projects
# must serve again.
SHARD1_PID=$(start_shard 1)
PIDS="$PIDS $SHARD1_PID"
readmitted=0
for _ in $(seq 1 80); do
	if [ "$(code "$BASE/v1/readyz")" = 200 ]; then
		readmitted=1
		break
	fi
	sleep 0.25
done
[ "$readmitted" = 1 ] || fail "restarted shard was never re-admitted"
for entry in $OWNERS; do
	[ "${entry#*:}" = 1 ] || continue
	p=${entry%:*}
	[ "$(code "$BASE/v1/projects/$p/status")" = 200 ] || fail "$p did not come back after the restart"
done

echo "router-smoke: OK (3 shards + router, $n projects; kill/restart degraded and recovered cleanly)"
