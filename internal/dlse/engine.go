// Package dlse implements the digital library search engine that the ICDE
// 2002 demo presented: one engine combining (1) conceptual webspace queries
// over the site's object graph, (2) scalable full-text retrieval over the
// flattened pages, and (3) content-based video retrieval over the
// FDE-populated meta-index — so that a user can ask for "video scenes of
// left-handed female players who have won the Australian Open in the past,
// in which they approach the net".
package dlse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/ir"
	"repro/internal/segset"
	"repro/internal/vec"
	"repro/internal/webspace"
)

// Engine is the combined digital-library search engine.
//
// Concurrency: an Engine is immutable after New — the webspace graph, the
// frozen inverted-file segments, and the object→page table are only read —
// so any number of goroutines may call Search and SearchAll concurrently
// on one shared Engine. The video segment set is an immutable snapshot
// whose partitions are never written. Any change to it (a batch, a commit,
// a compaction, a reload) installs a new Engine via WithVideo, which keeps
// the page lanes and mints the new Snapshot the serving layer's cache is
// tagged by.
type Engine struct {
	space *webspace.Webspace
	// The two ranked lanes index the same pages under one partition: text
	// segment o and vector segment o hold the same slice of pages, at the
	// same doc IDs.
	text  *ir.Segments
	vecs  *vec.Segments
	video *core.SegmentedIndex
	pages objPages
	// snap is this engine's process-unique snapshot ID (see Snapshot).
	snap int64
}

// snapshots issues process-unique engine snapshot IDs.
var snapshots atomic.Int64

// Options tunes engine construction.
type Options struct {
	// TextSegments partitions the site's pages into this many contiguous
	// full-text index segments, scored scatter-gather. Results are
	// byte-identical for every value (segments freeze against union corpus
	// statistics); < 1 selects 1.
	TextSegments int
	// TextSegfile, when set, caches the frozen text segments in a segfile
	// at this path. When the file exists and its corpus signature matches
	// the site's pages (and TextSegments), the engine memory-maps it —
	// zero-copy postings and impacts, no re-indexing, byte-identical
	// answers. Otherwise the index is built as usual and the cache is
	// rewritten atomically (temp file + rename). The mapping lives for the
	// life of the process; engines built from it must not outlive it.
	TextSegfile string
	// VecSegfile, when set, caches the vector lane's page embeddings in a
	// segfile at this path — the vec counterpart of TextSegfile, with the
	// same signature/staleness and atomic-rewrite semantics. The file
	// holds no page names (it takes the text lane's), so a boot opens it
	// only once the text lane is mapped from TextSegfile; a boot that
	// builds the text lane rebuilds and rewrites this cache too.
	VecSegfile string
}

// NewSegmented builds the engine over a generated site and a segmented
// video meta-index — the entry point of segmented libraries and the commit
// path. video may be nil for a text/concept-only engine.
func NewSegmented(site *webspace.Site, video *core.SegmentedIndex, opts Options) (*Engine, error) {
	if site == nil || site.W == nil {
		return nil, fmt.Errorf("dlse: nil site")
	}
	// One contiguous partition of the pages serves both page lanes, exactly
	// as the monolithic build assigned doc IDs: text segment o and
	// page-embedding segment o hold the same slice of pages.
	pages := segset.Partition(len(site.Pages), opts.TextSegments)
	text, vecs, err := buildPageLanes(site.Pages, pages, vec.DefaultEmbedder(), opts)
	if err != nil {
		return nil, err
	}
	// The object→page table depends only on page order (global doc ID =
	// position in site.Pages), so it is identical whether the text index is
	// built or mapped from a cache.
	e := &Engine{space: site.W, text: text, vecs: vecs, pages: newObjPages(site.W.Len(), site.Pages)}
	return e.WithVideo(video), nil
}

// objPages is the object→page table in compressed sparse row form: the
// pages of object id are docs[off[id]:off[id+1]], in doc order, for the
// webspace's dense IDs 1 … len(off)-2.
type objPages struct {
	off  []int32
	docs []ir.DocID
}

// newObjPages tables the pages of n objects. A page whose ObjectID names no
// object is left out.
func newObjPages(n int, pages []webspace.Page) objPages {
	owned := func(id int64) bool { return id >= 1 && id <= int64(n) }
	off := make([]int32, n+2)
	for _, pg := range pages {
		if owned(pg.ObjectID) {
			off[pg.ObjectID+1]++
		}
	}
	for id := 1; id <= n; id++ {
		off[id+1] += off[id]
	}
	docs := make([]ir.DocID, off[n+1])
	next := slices.Clone(off)
	for d, pg := range pages {
		if owned(pg.ObjectID) {
			docs[next[pg.ObjectID]] = ir.DocID(d)
			next[pg.ObjectID]++
		}
	}
	return objPages{off: off, docs: docs}
}

// of returns the doc IDs of object id's pages.
func (t objPages) of(id int64) []ir.DocID {
	if id < 1 || id > int64(len(t.off)-2) {
		return nil
	}
	return t.docs[t.off[id]:t.off[id+1]]
}

// buildPageLanes builds the two page lanes over one partition of the pages:
// the full-text index, one frozen segment per part, and the page embeddings,
// one builder per part, whose hits the text lane names (ir.Segments.Name).
// A lane whose cache file (opts.TextSegfile, opts.VecSegfile) carries the
// signature of these pages and this partition is memory-mapped, verified,
// and its build skipped entirely; a missing, stale or damaged cache is
// rebuilt and rewritten. The vector cache is opened only beside a text lane already
// there: it holds no names, and its signature derives from the text lane's
// (vec.Signature), so when the text lane is rebuilt so is the vector lane.
// A cold build runs concurrently what is independent: first every part is
// one scatter leg that analyses each of its pages once and feeds the same
// tokens to the part's text index and its vector builder, then the text lane
// freezes its parts against the union statistics and writes its cache while
// the vector lane writes its own, so the two fsyncs overlap. A lane with a
// cache file is always served from its mapping: after writing the file, the
// cold build opens it as a warm boot would and drops the heap it was built
// in, so a cold node and a warm node hold the same index.
func buildPageLanes(all []webspace.Page, pages segset.Bases, emb *vec.HashEmbedder, opts Options) (*ir.Segments, *vec.Segments, error) {
	textSig := pagesSignature(all, pages.Parts())
	vecSig := vec.Signature(textSig, emb)
	// The mappings live for the life of the process: the lanes alias them.
	// The text lane names the vector lane's hits by doc ID, so it must lay
	// the pages out as the vector lane does.
	openText := func() (*ir.Segments, error) {
		t, _, err := ir.OpenSegmentsFile(opts.TextSegfile, textSig)
		if err == nil && !samePartition(t.Partition(), pages) {
			return nil, errors.New("dlse: the text segfile cache partitions the pages otherwise")
		}
		return t, err
	}
	openVecs := func() (*vec.Segments, error) {
		v, _, err := vec.OpenFile(opts.VecSegfile, emb, vecSig, pages)
		return v, err
	}
	var text *ir.Segments
	var vecs *vec.Segments
	if opts.TextSegfile != "" {
		text, _ = openText() // a cache that does not open is rebuilt
	}
	if text != nil && opts.VecSegfile != "" {
		vecs, _ = openVecs()
	}
	if text != nil && vecs != nil {
		return text, vecs, nil
	}

	var textParts []*ir.Index
	if text == nil {
		textParts = make([]*ir.Index, pages.Parts())
	}
	vecParts := make([]*vec.Builder, pages.Parts())
	build := make([]func() error, pages.Parts())
	for ord := range build {
		build[ord] = func() error {
			// The stem memo lives for this leg only (see ir.Analyzer).
			var an ir.Analyzer
			var ix *ir.Index
			if textParts != nil {
				ix = ir.NewIndex()
				textParts[ord] = ix
			}
			vb := vec.NewBuilder(emb)
			vecParts[ord] = vb
			for _, pg := range all[pages.Start(ord):pages.Start(ord+1)] {
				toks := an.Analyze(pg.Text)
				if ix != nil {
					if _, err := ix.AddTokens(pg.Name, toks); err != nil {
						return fmt.Errorf("dlse: indexing page %s: %w", pg.Name, err)
					}
				}
				vb.AddTokens(toks)
			}
			return nil
		}
	}
	var finish []func() error
	if textParts != nil {
		finish = append(finish, func() (err error) {
			if text, err = ir.NewSegments(textParts); err != nil {
				return fmt.Errorf("dlse: freezing text segments: %w", err)
			}
			if opts.TextSegfile == "" {
				return nil
			}
			// Durable replace (temp file, fsync, rename, parent-dir fsync): a
			// concurrent reader sees either the old cache or the new one, and
			// a crash at any step cannot leave a torn file behind.
			err = fsx.WriteAtomic(fsx.OS, opts.TextSegfile, func(w io.Writer) error { return ir.WriteSegments(w, text, textSig) })
			if err != nil {
				return fmt.Errorf("dlse: writing text segfile cache: %w", err)
			}
			if text, err = openText(); err != nil {
				return fmt.Errorf("dlse: opening the text segfile cache just written: %w", err)
			}
			return nil
		})
	}
	if opts.VecSegfile != "" {
		finish = append(finish, func() error {
			if err := vec.WriteFile(opts.VecSegfile, emb, vecParts, vecSig); err != nil {
				return fmt.Errorf("dlse: writing vec segfile cache: %w", err)
			}
			return nil
		})
	}
	for _, stage := range [][]func() error{build, finish} {
		if err := concurrently(stage); err != nil {
			return nil, nil, err
		}
	}
	var err error
	if opts.VecSegfile == "" {
		vecs, err = vec.NewSegments(emb, vecParts, pages)
	} else if vecs, err = openVecs(); err != nil {
		err = fmt.Errorf("dlse: opening the vec segfile cache just written: %w", err)
	}
	if err != nil {
		return nil, nil, err
	}
	return text, vecs, nil
}

// samePartition reports whether a and b lay out the same parts.
func samePartition(a, b segset.Bases) bool {
	if a.Parts() != b.Parts() {
		return false
	}
	for i := range a.Parts() {
		if a.Start(i+1) != b.Start(i+1) {
			return false
		}
	}
	return true
}

// concurrently runs the tasks as the legs of one scatter and returns the
// first failure in task order.
func concurrently(tasks []func() error) error {
	return firstError(segset.Scatter(make([]int, len(tasks)), func(slot, _ int) error { return tasks[slot]() }))
}

// firstError returns the first failed leg's error in slot order.
func firstError(legs []segset.Leg[error]) error {
	for _, leg := range legs {
		if leg.Stats != nil {
			return leg.Stats
		}
	}
	return nil
}

// pagesSignature fingerprints the corpus a cached page-lane segfile was
// built from: the partition count, and the page names and bodies in order.
// It is the text cache's signature, and the vector cache's derives from it
// (vec.Signature). The openers refuse a cache whose stored signature
// differs, so a regenerated site, a changed -text-segments or another
// embedder can never serve stale postings or vectors.
func pagesSignature(pages []webspace.Page, nseg int) uint64 {
	h := fnv.New64a()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(nseg))
	h.Write(n[:])
	for _, pg := range pages {
		h.Write([]byte(pg.Name))
		h.Write([]byte{0})
		h.Write([]byte(pg.Text))
		h.Write([]byte{0})
	}
	if sig := h.Sum64(); sig != 0 {
		return sig
	}
	return 1 // 0 means "don't check" to the readers; never emit it
}

// WithVideo returns a new engine snapshot sharing this engine's site and
// page lanes (all immutable) over the video segment set video (nil for a
// text/concept-only engine), with its own snapshot ID — the one install path
// of a commit, a compaction and a reload. It reads no segment: a lazily
// opened library decodes a segment at its first scene query.
func (e *Engine) WithVideo(video *core.SegmentedIndex) *Engine {
	if video == nil {
		m, _ := core.NewMetaIndex() // does not fail
		video = core.SingleSegment(m)
	}
	ne := *e
	ne.video = video
	ne.snap = snapshots.Add(1)
	return &ne
}

// Snapshot returns the engine's process-unique snapshot ID, assigned at
// construction. Engines are immutable, so the ID identifies one frozen view
// of site + indexes; hot-swapping installs an engine with a new ID. Result
// sets and cursors carry it for observability.
func (e *Engine) Snapshot() int64 { return e.snap }

// Space returns the conceptual layer.
func (e *Engine) Space() *webspace.Webspace { return e.space }

// TextIndex returns the full-text layer (also the keyword-only baseline):
// a scatter-gather reader over the page index segments.
func (e *Engine) TextIndex() *ir.Segments { return e.text }

// VideoIndex returns the segmented video meta-index.
func (e *Engine) VideoIndex() *core.SegmentedIndex { return e.video }

// VecIndex returns the vector lane: a scatter-gather reader over the page
// embeddings, partitioned, ordered and numbered as TextIndex.
func (e *Engine) VecIndex() *vec.Segments { return e.vecs }

// Request is a combined query.
type Request struct {
	// Class is the target concept class.
	Class string
	// Where are conceptual constraints (webspace semantics).
	Where []webspace.Constraint
	// SceneKind, when set, fetches video scenes of this event kind from
	// the videos reached via VideoPath from each result object.
	SceneKind string
	// VideoPath walks from the result object to Video objects whose
	// "name" attribute identifies the indexed video.
	VideoPath []string
	// RequireScenes drops results without any matching scene.
	RequireScenes bool
	// Text, when set, ranks results by BM25 relevance of their pages.
	Text string
	// TextPath, when non-empty, ranks by the pages of the objects reached
	// via this role path instead of the result object's own pages (e.g.
	// rank players by their interviews).
	TextPath []string
	// Limit caps the result count (0 = unlimited).
	Limit int
}

// walkToVideos follows the role path and collects Video object names.
func (e *Engine) walkToVideos(o *webspace.Object, path []string) []string {
	var names []string
	for _, c := range e.walkObjects(o, path) {
		if c.Class == "Video" {
			if n := c.StringAttr("name"); n != "" {
				names = append(names, n)
			}
		}
	}
	return names
}

// walkObjects follows a role path from o (empty path returns o itself).
func (e *Engine) walkObjects(o *webspace.Object, path []string) []*webspace.Object {
	cur := []*webspace.Object{o}
	for _, role := range path {
		var next []*webspace.Object
		for _, c := range cur {
			for _, id := range c.Links[role] {
				if t, ok := e.space.Get(id); ok {
					next = append(next, t)
				}
			}
		}
		cur = next
	}
	return cur
}
