#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end check of the distributed tier: start two
# dlserve nodes over the same library, front them with dlrouter, and check
# that the cluster answers byte-identical to a single node (scattered kw=
# and kind= forms, proxied q= form, cursor pagination in every ranked lane
# and in the proxied form, whose follow-ups land on the node that minted
# their cursor),
# that a commit applied to every node shows up through the router (in the
# scene and the hybrid lane) with each node's /healthz agreeing with its
# /metrics on generation and snapshot, that killing one node
# of a replicas=2 cluster keeps answers identical, and that the router's
# Prometheus /metrics counted the work. Run via `make cluster-smoke`; CI
# runs it alongside the race job.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/dlserve" ./cmd/dlserve
go build -o "$tmp/dlrouter" ./cmd/dlrouter
go build -o "$tmp/synthgen" ./cmd/synthgen

# Replicated storage: every node loads the same library (same site flags,
# same seed), so partial answers merge byte-identical to one engine. 80
# players make more pages than a hybrid page's 2d+60 candidates, so the
# vector lane is cut short and its rank-lookup leg goes over the wire.
SITE_FLAGS="-players 80 -years 3 -seed 16 -text-segments 3"

# wait_port reads a daemon's log until the listen port appears and the
# daemon answers /healthz. Runs in a command substitution, so the daemon
# itself is started by the caller (keeping its pid in the parent's pids
# array) with stdout/stderr already redirected to the log.
wait_port() { # logfile pid -> port (echoed)
    local log=$1 pid=$2 port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's|.*listening on http://[^:]*:\([0-9]*\).*|\1|p' "$log" | head -1)
        if [ -n "$port" ] && curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            echo "$port"
            return
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "cluster-smoke: $log: process died before becoming healthy" >&2
            cat "$log" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
    echo "cluster-smoke: $log: no port discovered" >&2
    exit 1
}

# shellcheck disable=SC2086
"$tmp/dlserve" -addr 127.0.0.1:0 $SITE_FLAGS >"$tmp/node1.log" 2>&1 &
pids+=($!)
port1=$(wait_port "$tmp/node1.log" "${pids[0]}")
# shellcheck disable=SC2086
"$tmp/dlserve" -addr 127.0.0.1:0 $SITE_FLAGS >"$tmp/node2.log" 2>&1 &
pids+=($!)
port2=$(wait_port "$tmp/node2.log" "${pids[1]}")
"$tmp/dlrouter" -addr 127.0.0.1:0 \
    -node "http://127.0.0.1:$port1" -node "http://127.0.0.1:$port2" \
    -replicas 2 -hedge-after 20ms >"$tmp/router.log" 2>&1 &
pids+=($!)
rport=$(wait_port "$tmp/router.log" "${pids[2]}")
node="http://127.0.0.1:$port1"
router="http://127.0.0.1:$rport"
echo "cluster-smoke: nodes :$port1 :$port2, router :$rport"

# normalize strips per-process fields (timings, cursor tokens, cache
# flags, snapshot ids); items/count/total are the parity contract.
normalize() { jq -S 'del(.tookMs, .snapshot, .cursor, .cached)'; }

check_parity() { # query-string, urlencoded by caller
    local q=$1
    local a b
    a=$(curl -fsS "$node/v2/search?$q" | normalize)
    b=$(curl -fsS "$router/v2/search?$q" | normalize)
    if [ "$a" != "$b" ]; then
        echo "cluster-smoke: parity broken on $q" >&2
        diff <(echo "$a") <(echo "$b") >&2 || true
        exit 1
    fi
}

echo "--- parity: scattered and proxied forms"
check_parity 'kw=australian%20open%20final'
check_parity 'q=find%20Player%20where%20exists%20wonFinals%20rank%20%22champion%22'

echo "--- parity: error surface (no video index yet, bad limit)"
for q in 'kind=net-play' 'kw=final&limit=-1' 'kw=the%20of%20and'; do
    a=$(curl -s -o /dev/null -w '%{http_code}' "$node/v2/search?$q")
    b=$(curl -s -o /dev/null -w '%{http_code}' "$router/v2/search?$q")
    ca=$(curl -s "$node/v2/search?$q" | jq -r .code)
    cb=$(curl -s "$router/v2/search?$q" | jq -r .code)
    if [ "$a" != "$b" ] || [ "$ca" != "$cb" ]; then
        echo "cluster-smoke: error parity broken on $q: $a/$ca vs $b/$cb" >&2
        exit 1
    fi
done

echo "--- parity: paginated walks, scattered (kw=) and proxied (q=)"
walk() { # base param value -> the items of a limit=2 walk, one per line
    local base=$1 param=$2 value=$3 cursor="" page
    while :; do
        page=$(curl -fsS --get "$base/v2/search" \
            --data-urlencode "$param=$value" \
            --data-urlencode 'limit=2' --data-urlencode "cursor=$cursor")
        echo "$page" | jq -c '.items[]'
        cursor=$(echo "$page" | jq -r '.cursor // empty')
        [ -n "$cursor" ] || break
    done
}
for form in 'kw=australian open final' 'q=find Player limit 7'; do
    a=$(walk "$node" "${form%%=*}" "${form#*=}")
    b=$(walk "$router" "${form%%=*}" "${form#*=}")
    if [ "$a" != "$b" ] || [ "$(echo "$b" | wc -l)" -le 2 ]; then
        echo "cluster-smoke: paginated walk of $form diverged or took no cursor" >&2
        diff <(echo "$a") <(echo "$b") >&2 || true
        exit 1
    fi
done

echo "--- parity: page 2 by cursor, keyword, vector and hybrid lanes (depth-bounded legs)"
page2() { # base lane -> normalized second page of a limit=3 walk
    local base=$1 lane=$2 cursor
    cursor=$(curl -fsS --get "$base/v2/search" --data-urlencode 'kw=australian open final' \
        --data-urlencode "kind=$lane" --data-urlencode 'limit=3' | jq -r '.cursor // empty')
    [ -n "$cursor" ] || { echo "cluster-smoke: $base $lane: page 1 has no cursor" >&2; exit 1; }
    curl -fsS --get "$base/v2/search" --data-urlencode 'kw=australian open final' \
        --data-urlencode "kind=$lane" --data-urlencode 'limit=3' --data-urlencode "cursor=$cursor" | normalize
}
for lane in lexical vector hybrid; do
    a=$(page2 "$node" "$lane")
    b=$(page2 "$router" "$lane")
    if [ "$a" != "$b" ] || ! echo "$b" | jq -e '.count == 3 and .total > 6' >/dev/null; then
        echo "cluster-smoke: page 2 by cursor diverges on the $lane lane" >&2
        diff <(echo "$a") <(echo "$b") >&2 || true
        exit 1
    fi
done

echo "--- commit on every node, visible through the router"
"$tmp/synthgen" -out "$tmp/corpus" -n 1 -shots 3 >/dev/null
hybrid_page() { curl -fsS "$router/v2/search?kw=clip%20rally&kind=hybrid&limit=5" | normalize; }
hybrid_before=$(hybrid_page)
# Before the first commit there is no video index: kind= is a 404.
before=$(curl -s "$router/v2/search?kind=rally" | jq '.total // 0')
for p in "$port1" "$port2"; do
    curl -fsS -X POST "http://127.0.0.1:$p/v2/commit" \
        -d "{\"paths\":[\"$tmp/corpus/clip-000.svf\"]}" | jq -e '.segments == 2' >/dev/null
done
# Each node reports one segment-set generation and one engine snapshot:
# /healthz and /metrics must agree on both.
for p in "$port1" "$port2"; do
    m=$(curl -fsS "http://127.0.0.1:$p/metrics")
    gen=$(echo "$m" | awk '$1 == "dl_generation" {print $2}')
    snap=$(echo "$m" | awk '$1 == "dl_snapshot" {print $2}')
    curl -fsS "http://127.0.0.1:$p/healthz" |
        jq -e --argjson gen "${gen:-null}" --argjson snap "${snap:-null}" \
            '.generation == $gen and .snapshot == $snap' >/dev/null || {
        echo "cluster-smoke: node $p: /healthz disagrees with dl_generation=$gen dl_snapshot=$snap" >&2
        exit 1
    }
done
after=$(curl -fsS "$router/v2/search?kind=rally" | jq .total)
if [ "$after" -le "$before" ]; then
    echo "cluster-smoke: commit not visible through router ($before -> $after)" >&2
    exit 1
fi
check_parity 'kind=rally'
# Both ranked lanes index the pages alone: the commit moves no hybrid page,
# and router and node still agree on it.
[ "$(hybrid_page)" = "$hybrid_before" ] || {
    echo "cluster-smoke: the commit changed the hybrid page" >&2; exit 1; }
check_parity 'kw=clip%20rally&kind=hybrid&limit=5'

echo "--- router /metrics (Prometheus) and /debug/vars"
metrics=$(curl -fsS "$router/metrics")
echo "$metrics" | grep -q '^# TYPE dl_router_queries_total counter'
echo "$metrics" | grep -q '^dl_router_queries_total '
echo "$metrics" | grep -q "dl_node_requests_total{node=\"http://127.0.0.1:$port1\"}"
echo "$metrics" | grep -q '^# TYPE dl_node_healthy gauge'
echo "$metrics" | grep -q "^dl_node_healthy{node=\"http://127.0.0.1:$port2\"} 1"
curl -fsS "$router/debug/vars" | jq -e '.router_queries >= 1' >/dev/null
curl -fsS "$router/healthz" | jq -e '.healthy == 2' >/dev/null

echo "--- kill one node: replicas=2 still answers byte-identical"
kill "${pids[1]}" 2>/dev/null || true
wait "${pids[1]}" 2>/dev/null || true
check_parity 'kw=australian%20open%20final'
check_parity 'kind=net-play'
curl -fsS "$router/metrics" | grep -q "^dl_node_healthy{node=\"http://127.0.0.1:$port2\"} 0"

echo "--- graceful shutdown"
kill -INT "${pids[2]}"
wait "${pids[2]}"
kill -INT "${pids[0]}"
wait "${pids[0]}"
pids=()
echo "cluster-smoke: OK"
