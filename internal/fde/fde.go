// Package fde implements the Feature Detector Engine: "to populate the
// meta-index the feature grammar is used to generate a parser: the Feature
// Detector Engine (FDE). This FDE triggers the execution of the associated
// detectors."
//
// The engine compiles a feature grammar (internal/grammar) into an
// executable schedule. Processing a video runs every detector in dependency
// order over a shared blackboard of symbol values — the parse tree — and
// accumulates per-detector timing in the engine's Stats. The tennis
// instantiation (NewTennisEngine) binds the grammar's detectors to shotdet,
// track and rules; their tuning is constant, so a TennisConfig chooses only
// the segment detector's implementation. A parse's histogram workers are
// its caller's choice, passed to ProcessSource: the ingest pipeline picks
// them from the videos it has in flight.
package fde

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/grammar"
)

// Context is the blackboard one video is parsed on. Detector
// implementations read their required symbols and set their produced ones.
type Context struct {
	// Video identifies the document being parsed.
	Video core.Video
	// Frames is the raw-data layer. Detectors scan the ranges they read,
	// so a parse decodes frames only as a detector asks for them.
	Frames frame.Source
	// Workers bounds the goroutines the in-process segment detector
	// computes each frame's histogram on (shotdet.Sweeper.Workers); < 1
	// selects GOMAXPROCS. The shots are the same at any setting.
	Workers int
	values  map[string]any
	held    int // see Hold
}

// Hold records that a detector held n decoded frames at once; the parse
// reports the most any detector held as Result.Held.
func (c *Context) Hold(n int) {
	c.held = max(c.held, n)
}

// Set publishes a symbol value. Detectors must only set symbols they
// declare in the grammar; the engine verifies afterwards.
func (c *Context) Set(symbol string, v any) {
	c.values[symbol] = v
}

// Get reads a symbol value published by an upstream detector.
func (c *Context) Get(symbol string) (any, bool) {
	v, ok := c.values[symbol]
	return v, ok
}

// Impl is a detector implementation bound to a grammar detector.
type Impl func(ctx *Context) error

// Stats accumulates per-detector execution metrics.
type Stats struct {
	// Runs is the number of invocations.
	Runs int
	// Total is the cumulative wall-clock time.
	Total time.Duration
	// Errors counts failed invocations.
	Errors int
}

// Engine is a compiled Feature Detector Engine. Once every detector is
// bound, Process is safe to call from concurrent goroutines: each parse has
// its own blackboard, and the shared statistics are guarded by a mutex.
// Bind is not safe concurrently with Process.
type Engine struct {
	g     *grammar.Grammar
	impls map[string]Impl
	sched []*grammar.Detector

	statsMu sync.Mutex
	stats   map[string]*Stats
}

// New compiles the grammar into an engine. Every detector must be bound
// with Bind before Process is called.
func New(g *grammar.Grammar) (*Engine, error) {
	sched, err := g.Schedule()
	if err != nil {
		return nil, fmt.Errorf("fde: %w", err)
	}
	return &Engine{
		g:     g,
		impls: map[string]Impl{},
		sched: sched,
		stats: map[string]*Stats{},
	}, nil
}

// Bind attaches an implementation to a named detector.
func (e *Engine) Bind(name string, impl Impl) error {
	if e.g.Detector(name) == nil {
		return fmt.Errorf("fde: grammar %s has no detector %q", e.g.Name, name)
	}
	if impl == nil {
		return fmt.Errorf("fde: nil implementation for %q", name)
	}
	e.impls[name] = impl
	return nil
}

// bound verifies all detectors have implementations.
func (e *Engine) bound() error {
	var missing []string
	for _, d := range e.g.Detectors {
		if _, ok := e.impls[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("fde: unbound detectors: %v", missing)
	}
	return nil
}

// Result is the parse of one video: the final blackboard.
type Result struct {
	// Video is the parsed document.
	Video core.Video
	// Held is the most decoded frames a detector of this parse held at once
	// (Context.Hold), beside the source's own decode state.
	Held   int
	values map[string]any
}

// Get reads a symbol from the parse result.
func (r *Result) Get(symbol string) (any, bool) {
	v, ok := r.values[symbol]
	return v, ok
}

// Process parses one video held in memory, with the default histogram
// workers (one per CPU); see ProcessSource.
func (e *Engine) Process(v core.Video, frames []*frame.Image) (*Result, error) {
	return e.ProcessSource(v, frame.Frames(frames), 0)
}

// ProcessSource parses one video: all detectors run in dependency order,
// each reading the frames it needs from src. workers is the parse's
// Context.Workers.
func (e *Engine) ProcessSource(v core.Video, src frame.Source, workers int) (*Result, error) {
	if err := e.bound(); err != nil {
		return nil, err
	}
	ctx := &Context{Video: v, Frames: src, Workers: workers, values: map[string]any{}}
	for _, a := range e.g.Atoms {
		ctx.values[a] = v // atoms carry the document itself
	}
	for _, d := range e.sched {
		if err := e.runDetector(d, ctx); err != nil {
			return nil, err
		}
	}
	return &Result{Video: v, Held: ctx.held, values: ctx.values}, nil
}

func (e *Engine) runDetector(d *grammar.Detector, ctx *Context) error {
	// Verify the detector's inputs are present (the grammar guarantees the
	// order; this catches impls that forgot to Set their products).
	for _, r := range d.Requires {
		if _, ok := ctx.values[r]; !ok {
			return fmt.Errorf("fde: detector %s: required symbol %q missing", d.Name, r)
		}
	}
	start := time.Now()
	err := e.impls[d.Name](ctx)
	dur := time.Since(start)
	e.statsMu.Lock()
	st := e.stats[d.Name]
	if st == nil {
		st = &Stats{}
		e.stats[d.Name] = st
	}
	st.Runs++
	st.Total += dur
	if err != nil {
		st.Errors++
	}
	e.statsMu.Unlock()
	if err != nil {
		return fmt.Errorf("fde: detector %s: %w", d.Name, err)
	}
	for _, p := range d.Produces {
		if _, ok := ctx.values[p]; !ok {
			return fmt.Errorf("fde: detector %s did not produce symbol %q", d.Name, p)
		}
	}
	return nil
}

// Stats returns accumulated per-detector metrics keyed by detector name.
func (e *Engine) Stats() map[string]Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	out := make(map[string]Stats, len(e.stats))
	for k, v := range e.stats {
		out[k] = *v
	}
	return out
}
