// Command dlrouter is the stateless query router of a dlserve cluster: it
// reads segment placement from the nodes' manifests and fans /v2/search
// queries over them, merging per-node partial top-K streams so the cluster
// answers byte-identical to a single monolithic dlserve.
//
// Usage:
//
//	dlserve -addr :8401 -text-segments 4 &
//	dlserve -addr :8402 -text-segments 4 &
//	dlrouter -addr :8372 \
//	         -node http://localhost:8401 -node http://localhost:8402 \
//	         -replicas 2 -hedge-after 20ms
//
//	curl --get 'http://localhost:8372/v2/search' --data-urlencode 'kw=champion'
//	curl 'http://localhost:8372/healthz'
//	curl 'http://localhost:8372/metrics'
//	# with -debug-addr 127.0.0.1:6061 (off by default; never the serving port):
//	curl -o heap.pprof 'http://127.0.0.1:6061/debug/pprof/heap'
//
// The cluster model is replicated storage, partitioned compute: every
// node loads the full library (same -meta file, same site seed), and the
// router assigns which segment subset each node answers, rotating replicas
// over the sorted node list. Slow legs are hedged (a replica is raced
// after -hedge-after), dead nodes fail over immediately, and with
// -fail-open the router serves the reachable subset (marked "partial" in
// the response) instead of failing with 503 when every replica of some
// segment is down.
//
// Combined query-language (q=) and explain queries are proxied whole to
// one node — every node holds the full library, so a single-node answer
// already is the cluster answer for those. The node is a hash of the
// query's key, so a page's cursor follow-up lands on the node that minted
// it. Legs, manifest reads and proxies try each node at most once, healthy
// ones first: N dead nodes cost N attempts of at most -timeout each.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/transport"
)

// nodeList collects repeated -node flags (each may also hold a
// comma-separated list).
type nodeList []string

func (n *nodeList) String() string { return strings.Join(*n, ",") }

func (n *nodeList) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("node %q: want http(s)://host:port", u)
		}
		*n = append(*n, strings.TrimRight(u, "/"))
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlrouter: ")
	var nodes nodeList
	var (
		addr       = flag.String("addr", ":8373", "listen address (host:port; port 0 picks a free port)")
		replicas   = flag.Int("replicas", 2, "nodes that may answer each segment (primary + fallbacks)")
		hedgeAfter = flag.Duration("hedge-after", 20*time.Millisecond,
			"race the next replica when the primary leg runs longer than this (negative disables)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-query scatter budget")
		failOpen = flag.Bool("fail-open", false,
			"serve the reachable subset (marked partial) instead of 503 when every replica of a segment is down")
		healthEvery = flag.Duration("health-interval", 2*time.Second, "node health probe period (0 disables)")
		debugAddr   = flag.String("debug-addr", "",
			"serve net/http/pprof profiles under /debug/pprof/ on this separate address (empty disables, and then no heap profile is sampled)")
	)
	flag.Var(&nodes, "node", "dlserve node base URL (repeatable, or comma-separated)")
	flag.Parse()
	// Without -debug-addr no heap profile can be read, so none is sampled:
	// the sampled allocation stacks would stay resident for nothing.
	if *debugAddr == "" {
		runtime.MemProfileRate = 0
	}
	if len(nodes) == 0 {
		log.Fatal("no nodes: pass -node http://host:port at least once")
	}

	client := &http.Client{Timeout: *timeout}
	r, err := router.New(nodes, router.Options{
		Replicas:   *replicas,
		HedgeAfter: *hedgeAfter,
		Timeout:    *timeout,
		FailOpen:   *failOpen,
	}, client)
	if err != nil {
		log.Fatal(err)
	}

	// Boot check: probe every node's health and manifest so misconfiguration
	// (dead node, nodes serving different library states) surfaces at start
	// instead of on the first query. Disagreement is a warning, not fatal —
	// a node mid-commit catches up, and conditional reads keep answers
	// consistent meanwhile.
	bootCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	gens := map[int64][]string{}
	for _, u := range r.Nodes() {
		node := transport.NewRemote(u, client)
		if err := node.Health(bootCtx); err != nil {
			log.Printf("warning: node %s not healthy at boot: %v", u, err)
			continue
		}
		m, err := node.Manifest(bootCtx)
		if err != nil {
			log.Printf("warning: node %s has no manifest: %v", u, err)
			continue
		}
		gens[m.Generation] = append(gens[m.Generation], u)
		log.Printf("node %s: generation=%d textSegments=%d videoSegments=%d docs=%d videos=%d",
			u, m.Generation, m.TextSegments, len(m.Segments), m.Docs, m.Videos)
	}
	cancel()
	if len(gens) > 1 {
		log.Printf("warning: nodes disagree on segment generation: %v", gens)
	}
	healthy := r.CheckHealth(context.Background())

	// -debug-addr: the runtime profiles, on a listener of their own and
	// never on the serving mux.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		debugSrv := &http.Server{Handler: serve.DebugHandler()}
		go debugSrv.Serve(dln) // returns ErrServerClosed once Close runs
		defer debugSrv.Close()
		log.Printf("profiles on http://%s/debug/pprof/", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: r}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background health loop: keeps placement preferring live nodes and
	// lets a recovered node rejoin without a restart.
	if *healthEvery > 0 {
		go func() {
			t := time.NewTicker(*healthEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					r.CheckHealth(ctx)
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	log.Printf("listening on http://%s (nodes=%d healthy=%d replicas=%d hedge-after=%v fail-open=%v)",
		ln.Addr(), len(r.Nodes()), healthy, *replicas, *hedgeAfter, *failOpen)

	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
