#!/usr/bin/env bash
# serve_smoke.sh — build dlserve, start it on a random port, hit /healthz
# and the /v2 surface (/v2/search pagination — combined and ranked lanes —
# explain, /v2/commit, /v2/compact, SIGHUP hot reload, POST /v2/reload), then shut it down gracefully (SIGINT) and check it
# exits 0; then cobraindex writes one index at 1 and 4 workers and with the
# external segment detector (-segdet); then segfile boots: mapped vs heap text index, and a cold boot vs
# a warm boot on the same page-lane caches (answers, live heap, -debug-addr
# profiles, and what two reloads map). Run via `make serve-smoke`; CI runs it alongside the race job.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/dlserve" ./cmd/dlserve

# Port 0: the kernel picks a free port, dlserve logs the bound address.
"$tmp/dlserve" -addr 127.0.0.1:0 -players 16 -years 3 2>"$tmp/log" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$tmp/log" | head -1)
    if [ -n "$port" ] && curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: dlserve died before becoming healthy" >&2
        cat "$tmp/log" >&2 || true
        exit 1
    fi
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "serve-smoke: could not discover listen port" >&2
    cat "$tmp/log" >&2 || true
    exit 1
fi

echo "--- /healthz"
health=$(curl -fsS "http://127.0.0.1:$port/healthz")
echo "$health"
echo "$health" | grep -q '"status":"ok"'

echo "--- /v2/search (combined query)"
out=$(curl -fsS --get "http://127.0.0.1:$port/v2/search" \
    --data-urlencode 'q=find Player where sex = "female" and handedness = "left"')
echo "$out" | head -c 300
echo
echo "$out" | grep -q '"count":'

echo "--- the pre-/v2 endpoints are gone (404)"
for path in '/query?q=find+Player' '/keyword?q=final' '/scenes?kind=rally'; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$port$path")
    [ "$code" = 404 ] || { echo "serve-smoke: GET $path got $code, want 404" >&2; exit 1; }
done

echo "--- /v2/search (page 1)"
page1=$(curl -fsS --get "http://127.0.0.1:$port/v2/search" \
    --data-urlencode 'q=find Player where sex = "female"' \
    --data-urlencode 'limit=2')
echo "$page1" | head -c 300
echo
echo "$page1" | grep -q '"total":'
cursor=$(echo "$page1" | sed -n 's/.*"cursor":"\([^"]*\)".*/\1/p')
if [ -z "$cursor" ]; then
    echo "serve-smoke: page 1 returned no cursor" >&2
    exit 1
fi

echo "--- /v2/search (page 2 via cursor, must be cached)"
page2=$(curl -fsS --get "http://127.0.0.1:$port/v2/search" \
    --data-urlencode 'q=find Player where sex = "female"' \
    --data-urlencode 'limit=2' --data-urlencode "cursor=$cursor")
echo "$page2" | head -c 300
echo
echo "$page2" | grep -q '"cached":true'

echo "--- /v2/search ranked lanes: cursor walk (limit=3) == unpaginated answer"
# The cache holds a ranked prefix that every page of the walk deepens; the
# concatenated pages must be the unpaginated items byte for byte, and a page
# fetched a second time must come from the cache.
items() { sed -E 's/.*"items":\[(.*)\]\}$/\1/'; }
for kind in hybrid vector; do
    lane() { curl -fsS --get "http://127.0.0.1:$port/v2/search" \
        --data-urlencode 'kw=australian open final' --data-urlencode "kind=$kind" "$@"; }
    : >"$tmp/walk.$kind"
    cursor="" sep="" pages=0
    while :; do
        page=$(lane --data-urlencode 'limit=3' --data-urlencode "cursor=$cursor")
        printf '%s%s' "$sep" "$(echo "$page" | items)" >>"$tmp/walk.$kind"
        sep="," last=$cursor pages=$((pages + 1))
        cursor=$(echo "$page" | sed -n 's/.*"cursor":"\([^"]*\)".*/\1/p')
        [ -n "$cursor" ] || break
    done
    [ "$pages" -ge 3 ] || { echo "serve-smoke: $kind walk took only $pages pages" >&2; exit 1; }
    printf '%s' "$(lane | items)" >"$tmp/full.$kind" # after the walk, so the walk is what deepens the entry
    cmp "$tmp/full.$kind" "$tmp/walk.$kind" || {
        echo "serve-smoke: $kind cursor walk diverges from the unpaginated answer" >&2; exit 1; }
    lane --data-urlencode 'limit=3' --data-urlencode "cursor=$last" | grep -q '"cached":true'
    echo "match: $kind ($pages pages)"
done

echo "--- /v2/search: a query asked twice outlives 200 one-off queries"
# The cache admits by recurrence: a query's first answer enters probation
# (16 entries at the default -cache-size), a second ask protects it, and
# queries asked once churn through probation without evicting it.
combined() { curl -fsS --get "http://127.0.0.1:$port/v2/search" \
    --data-urlencode 'q=find Player where handedness = "left"'; }
combined >/dev/null
combined >/dev/null
for i in $(seq 1 200); do
    curl -fsS -o /dev/null --get "http://127.0.0.1:$port/v2/search" \
        --data-urlencode "kw=final once$i"
done
combined | grep -q '"cached":true' || {
    echo "serve-smoke: the combined query asked a third time was not cached" >&2; exit 1; }

echo "--- /v2/search explain"
curl -fsS --get "http://127.0.0.1:$port/v2/search" \
    --data-urlencode 'kw=final' --data-urlencode 'explain=1' \
    | grep -q '"plan":'

echo "--- /metrics (Prometheus) and /debug/vars (the same registry as JSON)"
metrics=$(curl -fsS "http://127.0.0.1:$port/metrics")
echo "$metrics"
echo "$metrics" | grep -q '^# TYPE dl_queries_total counter'
echo "$metrics" | grep -q '^dl_queries_total '
echo "$metrics" | grep -q '^dl_active_segments 1'
echo "$metrics" | grep -q '^dl_cache_deepens_total [1-9]'
echo "$metrics" | grep -q '^dl_cache_items [1-9]'
curl -fsS "http://127.0.0.1:$port/debug/vars" \
    | jq -e '.queries >= 1 and .active_segments == 1' >/dev/null

# normalize strips the per-request fields (timing, snapshot id, cache hit,
# opaque cursor) so two answers can be compared bytewise.
normalize() {
    sed -E 's/"tookMs":[0-9.]+,?//g; s/"snapshot":[0-9]+,?//g; s/"cached":(true|false),?//g; s/"cursor":"[^"]*",?//g'
}
vector() {
    curl -fsS --get "http://127.0.0.1:$port/v2/search" \
        --data-urlencode 'kw=rally serve tennis' --data-urlencode 'kind=vector' | normalize
}

echo "--- /v2/commit (grow the corpus by one broadcast, no reload)"
# Both ranked lanes index the pages alone: the commit moves no vector answer.
vector >"$tmp/vector.precommit"
go build -o "$tmp/synthgen" ./cmd/synthgen
"$tmp/synthgen" -out "$tmp/corpus" -n 1 -shots 3 >/dev/null
commit=$(curl -fsS -X POST "http://127.0.0.1:$port/v2/commit" \
    -d "{\"paths\":[\"$tmp/corpus/clip-000.svf\"]}")
echo "$commit"
echo "$commit" | grep -q '"segments":2'
curl -fsS --get "http://127.0.0.1:$port/v2/search" \
    --data-urlencode 'kind=rally' | grep -q '"total":'
curl -fsS "http://127.0.0.1:$port/debug/vars" | jq -e '.commits == 1' >/dev/null
curl -fsS "http://127.0.0.1:$port/metrics" | grep -q '^dl_commits_total 1'
# Commit error paths: no paths, malformed body.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "http://127.0.0.1:$port/v2/commit" -d '{"paths":[]}')
[ "$code" = 400 ] || { echo "serve-smoke: empty commit got $code" >&2; exit 1; }

echo "--- POST /v2/compact (two segments -> one, answers unchanged)"
answers() {
    curl -fsS --get "http://127.0.0.1:$port/v2/search" --data-urlencode 'kind=rally' | normalize >"$tmp/rally.$1"
    vector >"$tmp/vector.$1"
}
answers before
grep -q '"total":[1-9]' "$tmp/rally.before"
cmp "$tmp/vector.precommit" "$tmp/vector.before" || {
    echo "serve-smoke: the commit changed the vector answer" >&2; exit 1; }
compact=$(curl -fsS -X POST "http://127.0.0.1:$port/v2/compact")
echo "$compact"
echo "$compact" | grep -q '"segments":1'
metrics=$(curl -fsS "http://127.0.0.1:$port/metrics")
echo "$metrics" | grep -q '^dl_active_segments 1'
echo "$metrics" | grep -q '^dl_compactions_total 1'
answers after
for a in rally vector; do
    cmp "$tmp/$a.before" "$tmp/$a.after" || {
        echo "serve-smoke: compaction changed the $a answer" >&2; exit 1; }
    echo "match: $a"
done

echo "--- SIGHUP hot reload"
kill -HUP "$pid"
sleep 0.3
curl -fsS "http://127.0.0.1:$port/healthz" | grep -q '"status":"ok"'

echo "--- POST /v2/reload"
reload=$(curl -fsS -X POST "http://127.0.0.1:$port/v2/reload")
echo "$reload"
echo "$reload" | grep -q '"snapshot":'
curl -fsS --get "http://127.0.0.1:$port/v2/search" \
    --data-urlencode 'q=find Player' --data-urlencode 'limit=1' \
    | grep -q '"count":1'

kill -INT "$pid"
wait "$pid"
echo "serve-smoke: first server OK (graceful shutdown, exit 0)"

# ---------------------------------------------------------------------------
# Segfile persistence: index a corpus with cobraindex and boot two dlserve
# on the memory-mapped -meta — one also caching the site's text index in a
# -text-segfile, one building it on the heap — and require the two servers
# to answer /v2/search identically (modulo per-request fields); /v2/reload
# exercises the re-map path.

echo "--- cobraindex: corpus -> segfile, the same bytes at 1 and 4 workers and with -segdet"
go build -o "$tmp/cobraindex" ./cmd/cobraindex
go build -o "$tmp/segdet" ./cmd/segdet
"$tmp/synthgen" -out "$tmp/corpus2" -n 3 -shots 3 >/dev/null
"$tmp/cobraindex" -q -workers 1 -out "$tmp/meta.segf" "$tmp/corpus2" | tail -1
"$tmp/cobraindex" -q -workers 4 -out "$tmp/meta4.segf" "$tmp/corpus2" | tail -1
"$tmp/cobraindex" -q -segdet "$tmp/segdet" -out "$tmp/metasd.segf" "$tmp/corpus2" | tail -1
cmp "$tmp/meta.segf" "$tmp/meta4.segf"
cmp "$tmp/meta.segf" "$tmp/metasd.segf"

echo "--- -meta that is not a segfile: one clear error, non-zero exit"
go build -o "$tmp/dlsearch" ./cmd/dlsearch
printf 'CSDB\006\006videos' >"$tmp/old.db" # how a pre-segfile index began
rejects_old_index() {
    local err
    if err=$("$@" -meta "$tmp/old.db" 2>&1 >/dev/null); then
        echo "serve-smoke: '$1' accepted a non-segfile -meta" >&2; exit 1
    fi
    echo "$err"
    echo "$err" | grep -q "$tmp/old.db: not a segfile meta-index; re-index the corpus with cobraindex"
}
rejects_old_index "$tmp/dlserve" -addr 127.0.0.1:0 -players 16 -years 3
rejects_old_index "$tmp/dlsearch" -query 'find Player'

# start_server <logfile> <infofile> <args...> — boots dlserve (as a child
# of this shell, so `wait` sees it) and writes "pid port" to infofile.
start_server() {
    local log=$1 info=$2; shift 2
    "$tmp/dlserve" -addr 127.0.0.1:0 -players 16 -years 3 "$@" >/dev/null 2>"$log" &
    local spid=$! sport=""
    for _ in $(seq 1 100); do
        sport=$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$log" | head -1)
        if [ -n "$sport" ] && curl -fsS "http://127.0.0.1:$sport/healthz" >/dev/null 2>&1; then
            break
        fi
        if ! kill -0 "$spid" 2>/dev/null; then
            echo "serve-smoke: dlserve ($log) died before becoming healthy" >&2
            cat "$log" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$sport" ]; then
        echo "serve-smoke: could not discover listen port ($log)" >&2
        exit 1
    fi
    echo "$spid $sport" >"$info"
}

start_server "$tmp/log-segf" "$tmp/info-segf" -meta "$tmp/meta.segf" -text-segfile "$tmp/text.segf"
start_server "$tmp/log-heap" "$tmp/info-heap" -meta "$tmp/meta.segf"
read -r sf_pid sf_port <"$tmp/info-segf"
read -r hp_pid hp_port <"$tmp/info-heap"
trap 'kill "$sf_pid" "$hp_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

echo "--- /v2/search parity: mapped vs heap text index"
for q in 'q=find Player where sex = "female"' 'kw=australian final' 'kind=rally'; do
    a=$(curl -fsS --get "http://127.0.0.1:$sf_port/v2/search" --data-urlencode "$q" --data-urlencode 'limit=5' | normalize)
    b=$(curl -fsS --get "http://127.0.0.1:$hp_port/v2/search" --data-urlencode "$q" --data-urlencode 'limit=5' | normalize)
    if [ "$a" != "$b" ]; then
        echo "serve-smoke: mapped/heap answers diverge for $q" >&2
        echo "mapped: $a" >&2
        echo "heap:   $b" >&2
        exit 1
    fi
    echo "match: $q"
done
# Both servers carry the indexed corpus: the scene query must actually hit.
curl -fsS --get "http://127.0.0.1:$sf_port/v2/search" --data-urlencode 'kind=rally' \
    | grep -q '"total":[1-9]'
# The text-index cache was written and is a real file.
[ -s "$tmp/text.segf" ] || { echo "serve-smoke: -text-segfile cache not written" >&2; exit 1; }

echo "--- POST /v2/reload (segfile server re-maps its -meta)"
curl -fsS -X POST "http://127.0.0.1:$sf_port/v2/reload" | grep -q '"snapshot":'
after=$(curl -fsS --get "http://127.0.0.1:$sf_port/v2/search" --data-urlencode 'kind=rally' --data-urlencode 'limit=5' | normalize)
want=$(curl -fsS --get "http://127.0.0.1:$hp_port/v2/search" --data-urlencode 'kind=rally' --data-urlencode 'limit=5' | normalize)
if [ "$after" != "$want" ]; then
    echo "serve-smoke: segfile answers diverge after reload" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# A cold boot serves the page-lane caches it has just written: boot dlserve
# twice on the same -text-segfile/-vec-segfile paths (the first writes them,
# the second maps them) and require equal answers in every lane and live
# heaps within 10 %. -debug-addr serves the runtime profiles on a port of
# their own; /debug/pprof/heap?gc=1 also collects before the gauge is read.

echo "--- cold boot == warm boot on the same page-lane caches"
lanes=(-meta "$tmp/meta.segf" -text-segfile "$tmp/lane-text.segf" -vec-segfile "$tmp/lane-vec.segf" -debug-addr 127.0.0.1:0)
start_server "$tmp/log-cold" "$tmp/info-cold" "${lanes[@]}"
[ -s "$tmp/lane-text.segf" ] && [ -s "$tmp/lane-vec.segf" ] || {
    echo "serve-smoke: the cold boot wrote no page-lane caches" >&2; exit 1; }
start_server "$tmp/log-warm" "$tmp/info-warm" "${lanes[@]}"
read -r cold_pid cold_port <"$tmp/info-cold"
read -r warm_pid warm_port <"$tmp/info-warm"
trap 'kill "$sf_pid" "$hp_pid" "$cold_pid" "$warm_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
cold_warm() { # query-string args -> fails unless both servers answer alike
    a=$(curl -fsS --get "http://127.0.0.1:$cold_port/v2/search" "$@" --data-urlencode 'limit=5' | normalize)
    b=$(curl -fsS --get "http://127.0.0.1:$warm_port/v2/search" "$@" --data-urlencode 'limit=5' | normalize)
    [ "$a" = "$b" ] || { echo "serve-smoke: cold/warm answers diverge for $*" >&2; exit 1; }
    echo "match: $*"
}
cold_warm --data-urlencode 'q=find Player where sex = "female"'
cold_warm --data-urlencode 'kw=australian final'
for kind in vector hybrid; do
    cold_warm --data-urlencode 'kw=australian final' --data-urlencode "kind=$kind"
done
# Concept-only and ranked queries decode no segment of the mapped -meta.
curl -fsS "http://127.0.0.1:$cold_port/metrics" | grep -q '^dl_segments_hydrated 0' || {
    echo "serve-smoke: a ranked or concept-only query decoded a video segment" >&2; exit 1; }
cold_warm --data-urlencode 'kind=rally'
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$cold_port/debug/pprof/heap")
[ "$code" = 404 ] || { echo "serve-smoke: the serving port answered /debug/pprof/heap with $code" >&2; exit 1; }
heap_of() {
    local dport
    dport=$(sed -n 's|.*profiles on http://127\.0\.0\.1:\([0-9]*\)/.*|\1|p' "$1" | head -1)
    [ -n "$dport" ] || { echo "serve-smoke: no -debug-addr in $1" >&2; exit 1; }
    curl -fsS -o "$tmp/heap.pprof" "http://127.0.0.1:$dport/debug/pprof/heap?gc=1"
    [ -s "$tmp/heap.pprof" ] || { echo "serve-smoke: empty heap profile ($1)" >&2; exit 1; }
    curl -fsS "http://127.0.0.1:$2/metrics" | sed -n 's/^dl_heap_live_bytes //p'
}
cold_heap=$(heap_of "$tmp/log-cold" "$cold_port")
warm_heap=$(heap_of "$tmp/log-warm" "$warm_port")
echo "dl_heap_live_bytes: cold $cold_heap, warm $warm_heap"
awk -v c="$cold_heap" -v w="$warm_heap" 'BEGIN { d = c - w; if (d < 0) d = -d; exit !(w > 0 && d <= w / 10) }' || {
    echo "serve-smoke: cold and warm live heaps differ by more than 10 %" >&2; exit 1; }
curl -fsS "http://127.0.0.1:$cold_port/metrics" | grep -q '^dl_segments_hydrated 1'

# A reload swaps the video library and keeps the page lanes: the lane server
# maps its -meta file again on each POST /v2/reload (superseded libraries are
# never unmapped), and its page-lane caches never again.
echo "--- two POST /v2/reload on the lane server map the -meta file, not the caches"
mapped_of() { curl -fsS "http://127.0.0.1:$1/metrics" | sed -n 's/^dl_mapped_bytes //p'; }
mapped_before=$(mapped_of "$cold_port")
for _ in 1 2; do
    curl -fsS -X POST "http://127.0.0.1:$cold_port/v2/reload" | grep -q '"snapshot":'
done
mapped_after=$(mapped_of "$cold_port")
meta_bytes=$(wc -c <"$tmp/meta.segf")
echo "dl_mapped_bytes: $mapped_before -> $mapped_after (-meta is $meta_bytes bytes)"
[ -n "$mapped_before" ] && [ "$((mapped_after - mapped_before))" -eq "$((2 * meta_bytes))" ] || {
    echo "serve-smoke: two reloads grew dl_mapped_bytes by $((mapped_after - mapped_before)), want $((2 * meta_bytes))" >&2; exit 1; }

kill -INT "$sf_pid" "$hp_pid" "$cold_pid" "$warm_pid"
wait "$sf_pid" "$hp_pid" "$cold_pid" "$warm_pid"
echo "serve-smoke: OK (graceful shutdown, exit 0)"
