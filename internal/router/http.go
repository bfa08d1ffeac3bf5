package router

// The router's HTTP surface — the same /v2/search contract dlserve
// exposes, backed by the cluster instead of one engine, plus /healthz,
// /metrics and /debug/vars. Parameter parsing, the response shape, the
// typed error envelope and the metrics registry are the serve package's
// own exported helpers, so a client cannot tell a router from a node by
// the bytes (modulo cursor tokens embedding the cluster generation).

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/dlse"
	"repro/internal/serve"
	"repro/internal/transport"
)

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// handleSearch answers GET /v2/search. Keyword (kw=), vector and hybrid
// (kw= with kind=vector|hybrid), and scene (kind=) queries scatter over
// the cluster's segment placement; combined (q=) and explain queries are
// proxied whole to one node — every node holds the full library, so its
// answer is the cluster's.
func (r *Router) handleSearch(w http.ResponseWriter, req *http.Request) {
	if !serve.OnlyMethod(w, req, http.MethodGet) {
		return
	}
	q, cursor, limit, explain, err := serve.ParseSearchQuery(req)
	if err != nil {
		serve.WriteSearchError(w, err)
		return
	}
	key, ok := dlse.CanonicalKey(q)
	if !ok || explain {
		if !ok {
			key = q.Source
		}
		r.proxy(w, req, key)
		return
	}
	start := time.Now()
	rs, partial, err := r.Search(req.Context(), q, cursor, limit)
	if err != nil {
		serve.WriteSearchError(w, err)
		return
	}
	serve.WriteSearchResult(w, rs, false, partial, time.Since(start))
}

// proxy forwards the request whole to the first node that answers, in node
// order from its key's node (keyNode; a cursor is not part of the key).
// Any HTTP response — including a 4xx/5xx error envelope — is a valid answer
// and is copied back verbatim; only transport-level failures — a node silent
// for Options.Timeout among them — fail over to the next node.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, key string) {
	r.queries.Add(1)
	r.proxied.Add(1)
	var lastErr error
	for _, n := range r.candidates(keyNode(key, len(r.nodes)), len(r.nodes)) {
		addr := n.src.Addr()
		if !strings.HasPrefix(addr, "http") {
			lastErr = fmt.Errorf("%w: node %s has no HTTP address to proxy to",
				transport.ErrUnavailable, addr)
			continue
		}
		r.nodeReqs.Add(addr, 1)
		err := r.forward(w, req, addr)
		if err == nil {
			return
		}
		if availability(err) {
			r.nodeErrs.Add(addr, 1)
			n.healthy.Store(false)
		}
		lastErr = err
	}
	r.failures.Add(1)
	serve.WriteSearchError(w, lastErr)
}

// keyNode is the node, of n, that a proxied query with this key starts at.
func keyNode(key string, n int) int { return int(crc32.ChecksumIEEE([]byte(key)) % uint32(n)) }

// forward sends the request to one node and copies its answer back. An
// error means the node gave no answer within Options.Timeout and nothing was
// written.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, addr string) error {
	ctx, cancel := context.WithTimeout(req.Context(), r.opts.Timeout)
	defer cancel()
	out, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(addr, "/")+req.URL.RequestURI(), nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(out)
	if err != nil {
		return fmt.Errorf("%w: %v", transport.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return nil
}

// routerHealth is the /healthz answer: the router's own liveness plus
// per-node health as placement currently sees it.
type routerHealth struct {
	Status  string       `json:"status"`
	Nodes   []nodeHealth `json:"nodes"`
	Healthy int          `json:"healthy"`
}

type nodeHealth struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
}

// handleHealthz answers GET /healthz.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if !serve.OnlyMethod(w, req, http.MethodGet) {
		return
	}
	h := routerHealth{Status: "ok"}
	for _, n := range r.nodes {
		up := n.healthy.Load()
		if up {
			h.Healthy++
		}
		h.Nodes = append(h.Nodes, nodeHealth{Addr: n.src.Addr(), Healthy: up})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(h)
}
