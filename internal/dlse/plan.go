package dlse

// Planner / operator architecture. A Request is compiled into a Plan: a DAG
// of independent retrieval operators feeding one deterministic merge stage.
//
//	concept ─┐
//	video   ─┼─▶ merge (join scenes → filter → rank → sort → limit)
//	text    ─┘
//
// The three operators touch disjoint engine layers (webspace object graph,
// COBRA meta-index, inverted file) and share no mutable state, so the
// executor runs them concurrently; the merge then joins their outputs in
// the same order the old sequential engine used, keeping results
// byte-identical to sequential execution.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/segset"
	"repro/internal/webspace"
)

// OpKind identifies a retrieval operator in a compiled plan.
type OpKind int

// The retrieval operators. Their numeric order is also the error-priority
// order: when several operators fail concurrently, the executor reports the
// error of the lowest-numbered one, matching what sequential execution
// (concept, then video, then text) would have surfaced first.
const (
	OpConcept OpKind = iota // webspace conceptual selection
	OpVideo                 // content-based scene retrieval
	OpText                  // full-text BM25 ranking
)

// String names the operator.
func (k OpKind) String() string {
	switch k {
	case OpConcept:
		return "concept"
	case OpVideo:
		return "video"
	case OpText:
		return "text"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Plan is a compiled Request.
type Plan struct {
	req Request
	ops []OpKind
}

// String renders the plan for explain output.
func (p Plan) String() string {
	names := make([]string, len(p.ops))
	for i, k := range p.ops {
		names[i] = k.String()
	}
	return "[" + strings.Join(names, " ‖ ") + "] → merge"
}

// Plan compiles a request into its operator DAG. The concept operator is
// always present; the video and text operators join only when the request
// has a content or ranking part.
func (e *Engine) Plan(req Request) Plan {
	ops := []OpKind{OpConcept}
	if req.SceneKind != "" {
		ops = append(ops, OpVideo)
	}
	if req.Text != "" {
		ops = append(ops, OpText)
	}
	return Plan{req: req, ops: ops}
}

// execState collects the operator outputs. Each operator writes only its
// own field, so no locking is needed while they run concurrently.
type execState struct {
	objs         []*webspace.Object      // OpConcept
	scenesByName map[string][]core.Scene // OpVideo
	// videoSegs are the per-segment scatter stats of OpVideo, collected
	// only for explain plans (one entry per video index partition when the
	// library is segmented).
	videoSegs []OpStat
	// videoView records whether OpVideo answered from the frozen columnar
	// scene view ("cached") or rebuilt it ("rebuilt"); explain plans only.
	videoView string
	// textScores is a leased view of the rank text's dense per-doc scores,
	// backed by one pooled kernel accumulator per text segment (invalid
	// when the rank text has no indexable terms); run releases it after the
	// merge.
	textScores ir.SegScores // OpText
	// textStats are the scoring kernel's merged work counters for OpText,
	// captured for explain plans.
	textStats ir.SearchStats
	// explain asks operators to record per-segment stats.
	explain bool
}

// run executes the plan: independent operators as the legs of one scatter
// (a single-operator plan — concept-only queries, the most common shape —
// runs inline on the caller's goroutine), then the deterministic merge.
// With explain set it also collects per-operator wall times, row counts,
// and the text operator's kernel stats into an Explain payload; the results
// themselves are identical either way.
func (e *Engine) run(ctx context.Context, p Plan, explain bool) ([]Item, *Explain, error) {
	st := &execState{explain: explain}
	defer func() { st.textScores.Release() }() // recycle the text operator's accumulator
	legs := segset.Scatter(make([]int, len(p.ops)), func(i, _ int) error {
		return e.runOperator(ctx, p.ops[i], p.req, st) // checks ctx first
	})
	// ops are in priority order, so the first error found is the one the
	// sequential engine would have reported.
	if err := firstError(legs); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	results := e.merge(p.req, st)
	if !explain {
		return results, nil, nil
	}
	ex := &Explain{Plan: p.String()}
	for i, k := range p.ops {
		op := OpStat{Op: k.String(), Duration: clampDur(legs[i].Duration)}
		switch k {
		case OpConcept:
			op.Items = len(st.objs)
		case OpVideo:
			for _, ss := range st.scenesByName {
				op.Items += len(ss)
			}
			op.Segments = st.videoSegs
			op.View = st.videoView
		case OpText:
			op = textOpStat(op.Op, op.Duration, st.textStats.DocsTouched, st.textStats, st.textScores.SegmentStats())
		}
		ex.Ops = append(ex.Ops, op)
	}
	ex.Ops = append(ex.Ops, OpStat{
		Op: "merge", Duration: clampDur(time.Since(t0)), Items: len(results),
	})
	return results, ex, nil
}

// viewLabel renders the change in a snapshot's built scene views
// (core.SegmentedIndex.ViewsBuilt) across an operator for explain output.
func viewLabel(builds int64) string {
	if builds > 0 {
		return "rebuilt"
	}
	return "cached"
}

// clampDur keeps explain timings non-zero: an operator that executed always
// reports at least one nanosecond, even if the clock did not tick.
func clampDur(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Nanosecond
	}
	return d
}

// runOperator dispatches one operator.
func (e *Engine) runOperator(ctx context.Context, kind OpKind, req Request, st *execState) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	switch kind {
	case OpConcept:
		objs, err := e.space.Run(webspace.Query{Class: req.Class, Where: req.Where})
		if err != nil {
			return fmt.Errorf("dlse: conceptual part: %w", err)
		}
		st.objs = objs
	case OpVideo:
		var vb0 int64
		if st.explain {
			vb0 = e.video.ViewsBuilt()
		}
		scenes, err := e.videoScatter(ctx, req.SceneKind, st)
		if err != nil {
			return fmt.Errorf("dlse: video part: %w", err)
		}
		if st.explain {
			st.videoView = viewLabel(e.video.ViewsBuilt() - vb0)
		}
		byName := make(map[string][]core.Scene)
		for _, s := range scenes {
			byName[s.Video.Name] = append(byName[s.Video.Name], s)
		}
		st.scenesByName = byName
	case OpText:
		// The merge only joins scores by doc ID, so the ranking-free
		// ScoreQuery form of the scoring kernel applies: no hit
		// construction, no top-k selection, no per-query score table — just
		// a leased view of one pooled dense accumulator per text segment.
		scores, stats, err := e.text.ScoreQuery(req.Text)
		st.textStats = stats
		if err == ir.ErrEmptyQry {
			return nil // unrankable text: scores stay zero, like before
		}
		if err != nil {
			return fmt.Errorf("dlse: text part: %w", err)
		}
		st.textScores = scores
	default:
		return fmt.Errorf("dlse: unknown operator %v", kind)
	}
	return nil
}

// videoScatter retrieves the scenes of an event kind across the video
// index's partitions. A single-partition library reads directly; a
// segmented one scatters the per-partition lookups and concatenates in
// segment order — the append order of the monolithic index, so the gathered
// list is byte-identical to the unsegmented read. With explain set it
// records one OpStat per partition.
func (e *Engine) videoScatter(ctx context.Context, kind string, st *execState) ([]core.Scene, error) {
	n := e.video.NumSegments()
	if n <= 1 {
		return e.video.Scenes(kind)
	}
	perSeg := make([][]core.Scene, n)
	legs := segset.Scatter(make([]int, n), func(i, _ int) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		perSeg[i], err = e.video.PartScenes(i, kind)
		return err
	})
	if err := firstError(legs); err != nil {
		return nil, err
	}
	var out []core.Scene
	for i, scenes := range perSeg {
		out = append(out, scenes...)
		if st.explain {
			st.videoSegs = append(st.videoSegs, OpStat{
				Op: fmt.Sprintf("video[%d]", i), Duration: clampDur(legs[i].Duration), Items: len(scenes),
			})
		}
	}
	return out, nil
}

// merge joins the operator outputs deterministically: scene attachment (in
// concept-result order), RequireScenes filtering, text-score assignment, a
// stable sort by score, and the limit.
func (e *Engine) merge(req Request, st *execState) []Item {
	results := make([]Item, 0, len(st.objs))
	for _, o := range st.objs {
		results = append(results, Item{Object: o})
	}
	if req.SceneKind != "" {
		for i := range results {
			for _, vname := range e.walkToVideos(results[i].Object, req.VideoPath) {
				results[i].Scenes = append(results[i].Scenes, st.scenesByName[vname]...)
			}
		}
		if req.RequireScenes {
			kept := results[:0]
			for _, r := range results {
				if len(r.Scenes) > 0 {
					kept = append(kept, r)
				}
			}
			results = kept
		}
	}
	if req.Text != "" {
		if st.textScores.Valid() { // invalid when the rank text had no indexable terms
			for i := range results {
				var best float64
				for _, o := range e.walkObjects(results[i].Object, req.TextPath) {
					for _, d := range e.pages.of(o.ID) {
						if s := st.textScores.Get(d); s > best {
							best = s
						}
					}
				}
				results[i].Score = best
			}
		}
		sort.SliceStable(results, func(i, j int) bool {
			return results[i].Score > results[j].Score
		})
	}
	if req.Limit > 0 && len(results) > req.Limit {
		results = results[:req.Limit]
	}
	if len(results) < cap(results) {
		// The serving layer caches the answer whole: copy the survivors out
		// so a short answer does not pin the array sized for every candidate.
		results = append([]Item(nil), results...)
	}
	return results
}

// CanonicalKey renders the request as a deterministic string: two requests
// with the same retrieval semantics map to the same key. The rank text is
// normalized through the IR analyzer (case folding, stopping, stemming), so
// cosmetic spelling differences that cannot change BM25 scores collapse to
// one cache entry. Serving-layer query caches key on this.
func (r Request) CanonicalKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "find=%s", r.Class)
	for _, c := range r.Where {
		fmt.Fprintf(&b, "|where=%s!%s!%d!%#v", strings.Join(c.Path, "."), c.Attr, int(c.Op), c.Val)
	}
	if r.SceneKind != "" {
		fmt.Fprintf(&b, "|scenes=%s!%s!%t", r.SceneKind, strings.Join(r.VideoPath, "."), r.RequireScenes)
	}
	if r.Text != "" {
		fmt.Fprintf(&b, "|rank=%s!%s", strings.Join(ir.Analyze(r.Text), " "), strings.Join(r.TextPath, "."))
	}
	fmt.Fprintf(&b, "|limit=%d", r.Limit)
	return b.String()
}
