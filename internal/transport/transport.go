// Package transport abstracts segment access behind one interface so the
// query tier can read index segments without knowing where they live: a
// Local source wraps the in-process engine snapshot (ir.Segments text
// partitions + core.SegmentedIndex video partitions), a Remote source
// speaks the /v2/partial HTTP surface of a dlserve node. Both answer the
// same partial-read primitives — partial top-K text and vector search, rank
// lookup, per-partition scenes lookup, manifest, health — with identical
// bytes, which is what
// lets the distributed router (internal/router) merge per-node partial
// answers into a result byte-identical to the monolithic build.
package transport

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/ir"
)

// Errors of the partial-read surface. Remote maps the wire error codes
// back onto these sentinels so callers branch identically against Local
// and Remote sources.
var (
	// ErrStale reports a partial read whose expected generation no longer
	// matches the source's segment set (a commit, compaction, or reload
	// landed in between). The caller should refetch the manifest and
	// re-plan.
	ErrStale = errors.New("transport: stale segment generation")
	// ErrBadSelection reports a partial query malformed for the source: a
	// selection naming a segment ordinal it does not have, or one twice; not
	// exactly one query form; a rank lookup beside K, beside Scenes, or
	// longer than the lane.
	ErrBadSelection = errors.New("transport: bad segment selection")
	// ErrUnavailable reports a source that could not be reached at all —
	// the signal replica failover and health accounting key on.
	ErrUnavailable = errors.New("transport: source unavailable")
)

// SegmentInfo is one manifest entry: a video partition's identity, ID
// base, and size.
type SegmentInfo struct {
	// ID is the segment's stable identity from the library manifest.
	ID int64 `json:"id"`
	// BaseVideo is the video-ID counter state at the segment's start.
	BaseVideo int64 `json:"baseVideo"`
	// Videos is the number of videos the segment holds.
	Videos int `json:"videos"`
}

// Manifest describes the segment sets a source serves — the placement
// input of the router. Two nodes serving the same library state report
// identical manifests (Snapshot excepted, which is process-unique).
type Manifest struct {
	// Generation is the video segment-set generation; it moves on every
	// commit, compaction, and reload.
	Generation int64 `json:"generation"`
	// Snapshot is the source's current engine snapshot (process-unique;
	// observability only, never used for placement).
	Snapshot int64 `json:"snapshot"`
	// TextSegments is the number of full-text index partitions.
	TextSegments int `json:"textSegments"`
	// Docs is the total full-text document count.
	Docs int `json:"docs"`
	// Videos is the total indexed video count.
	Videos int `json:"videos"`
	// Segments lists the video partitions in ordinal order.
	Segments []SegmentInfo `json:"segments"`
}

// Sel selects the segment subset a partial read covers, by ordinal.
type Sel struct {
	// Text selects page partitions (for Keyword and Vector queries).
	Text []int `json:"text,omitempty"`
	// Video selects video partitions (for Scenes queries).
	Video []int `json:"video,omitempty"`
}

// Query is one partial query: exactly one of Keyword, Vector, or Scenes
// set, and Ranks only beside Keyword or Vector.
type Query struct {
	// Keyword is ranked BM25 retrieval over the selected text partitions.
	Keyword string `json:"keyword,omitempty"`
	// K caps the keyword or vector answer at the top k hits (0 = full
	// ranking). The gather asks for the depth its page needs; the answer's
	// Matched still counts everything that would have ranked.
	K int `json:"k,omitempty"`
	// Vector is embedding-similarity retrieval over the vector lane: the
	// selected text ordinals name page-embedding segments, which hold the
	// same pages at the same doc IDs as the text partitions.
	Vector string `json:"vector,omitempty"`
	// Scenes looks up scenes of this event kind in the selected video
	// partitions.
	Scenes string `json:"scenes,omitempty"`
	// Ranks, when set, turns a Keyword or Vector query into a rank lookup:
	// the answer is Partial.Ranks, each of these documents' 1-based rank
	// among what the query scored over the selection, instead of hits. It is
	// the second round of a bounded hybrid fusion (dlse.FuseCandidates): a
	// candidate one lane listed needs its exact rank in the other. At most
	// the lane's document count; K must be 0.
	Ranks []ir.DocID `json:"ranks,omitempty"`
}

// Hit is one partial keyword hit under its global doc ID. Scores are
// computed against union corpus statistics, so they are bit-identical to
// the scores a full search assigns the same documents.
type Hit struct {
	Doc   ir.DocID `json:"doc"`
	Page  string   `json:"page"`
	Score float64  `json:"score"`
}

// SceneGroup is one video partition's scenes, tagged with its ordinal so
// the gather can restore global (segment-order) concatenation even when a
// source serves a non-contiguous ordinal set.
type SceneGroup struct {
	Seg    int          `json:"seg"`
	Scenes []core.Scene `json:"scenes"`
}

// Partial is the answer of one partial read.
type Partial struct {
	// Generation/Snapshot identify the segment set and engine snapshot
	// that answered; the gather checks all legs agree on Generation.
	Generation int64 `json:"generation"`
	Snapshot   int64 `json:"snapshot"`
	// Hits is the keyword or vector answer: the selected partitions' best
	// Query.K hits (all of them at K = 0) merged under the global (score
	// desc, DocID asc) order.
	Hits []Hit `json:"hits,omitempty"`
	// Matched is the size of that answer before the cap: documents the
	// keyword touched, or the vector scan scored, in the selected
	// partitions. Summed over a gather's legs it is the answer's total.
	Matched int `json:"matched,omitempty"`
	// Stats is the keyword kernel work over the selected partitions.
	Stats ir.SearchStats `json:"stats"`
	// Groups is the scenes answer, one group per selected video partition.
	Groups []SceneGroup `json:"groups,omitempty"`
	// Ranks is the rank-lookup answer, aligned with Query.Ranks: each
	// document's 1-based rank under the global (score desc, DocID asc)
	// order among the documents the query scored in the selected
	// partitions, 0 where it scored nothing there (a document outside the
	// selection included).
	Ranks []int `json:"ranks,omitempty"`
}

// SegmentSource is one place index segments can be read from. All
// implementations are safe for concurrent use.
type SegmentSource interface {
	// Addr identifies the source (a URL for Remote, "local" for Local) —
	// for placement, logs, and metrics labels.
	Addr() string
	// Manifest reports the segment sets the source currently serves.
	Manifest(ctx context.Context) (Manifest, error)
	// Partial answers one partial query over the selected segments.
	// expectGen, when >= 0, makes the read conditional: a source whose
	// video generation differs fails with ErrStale instead of answering
	// against a segment set the caller did not plan for.
	Partial(ctx context.Context, q Query, sel Sel, expectGen int64) (*Partial, error)
	// Health reports nil when the source is alive and serving.
	Health(ctx context.Context) error
}
