package serve

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler serves the runtime profiles of net/http/pprof under
// /debug/pprof/ (heap, goroutine, CPU profile, execution trace, …). It
// belongs on a listener of its own (dlserve and dlrouter -debug-addr), never
// on the serving mux: a CPU profile or a trace holds its request for
// seconds, and every profile exposes the process's internals. Nothing here
// serves http.DefaultServeMux, where importing net/http/pprof also registers
// these handlers.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
