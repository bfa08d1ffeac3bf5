// Package vec is the second retrieval lane of the digital library: a
// pure-Go exact nearest-neighbor index over dense document embeddings,
// segmented and scatter-gathered exactly like the lexical kernel in
// internal/ir.
//
// The lane is built for determinism first. Embeddings come from a
// pluggable Embedder whose default is a hash-projection ("LSA-style
// random indexing") embedder: a pure function of the analyzed token
// stream, no model weights, so every test is hermetic and every score is
// byte-reproducible. Cosine similarity over L2-normalized vectors makes a
// document's score against a query independent of the rest of the corpus
// — the vec analog of ir's frozen BM25 impacts — so partitioning the
// corpus cannot perturb a single score bit.
//
// The scan is flat: a query is scored against every document of every
// segment it is asked about, one sequential pass over each segment's
// row-major matrix, and the best k are selected with the lexical kernel's
// accumulator and heap under the one (score desc, DocID asc) total order.
// With corpus-independent scores and one total order there is nothing to
// derive from the union corpus, so composing segments (NewSegments) only
// assigns DocID bases and any split of the same documents answers like the
// monolith. The lane once kept an inverted-list layer over a sampled coarse
// quantizer; every caller scanned all of its lists, where it answered byte
// for byte like this scan while charging a whole-corpus re-assignment per
// composition, so it was removed (PR 18). An approximate structure returns
// only with a recall harness and a benchmark workload on each side of the
// choice (ROADMAP.md).
package vec

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/segfile"
)

// Embedder maps text to a fixed-dimension dense vector. Implementations
// must be deterministic pure functions of the text (the whole lane's
// byte-identity rests on it) and should return L2-normalized vectors so
// dot products are cosine similarities.
type Embedder interface {
	// Name identifies the embedding scheme; it is persisted with cached
	// vectors so a cache built by a different embedder is refused.
	Name() string
	// Dim is the embedding dimension.
	Dim() int
	// Embed returns the text's embedding. A text with no indexable
	// tokens embeds to the zero vector.
	Embed(text string) []float32
	// EmbedTokens is Embed for text already analysed: for every text,
	// EmbedTokens(ir.Analyze(text)) must equal Embed(text) bit for bit. It
	// lets a caller analyse once and feed both lanes (or validate a query
	// and embed it) without a second analysis.
	EmbedTokens(toks []string) []float32
}

// DefaultDim is the dimension of the default hash embedder — small
// enough that exhaustive scans stay cheap, large enough that unrelated
// token sets rarely collide into similar directions.
const DefaultDim = 64

// HashEmbedder is the deterministic default: random-indexing projection
// of the analyzed token stream into a fixed-dimension space. Every
// unigram contributes ±1 to one hashed coordinate and every bigram
// contributes ±0.5 to another, accumulated in token order and
// L2-normalized. Tokenization reuses ir.Analyze, so the vector lane and
// the lexical lane agree on what a term is — and a build that analysed a
// page for the lexical lane feeds the same tokens here (EmbedTokens).
type HashEmbedder struct {
	dim int
}

// NewHashEmbedder builds a hash embedder of the given dimension
// (DefaultDim if dim <= 0).
func NewHashEmbedder(dim int) *HashEmbedder {
	if dim <= 0 {
		dim = DefaultDim
	}
	return &HashEmbedder{dim: dim}
}

// DefaultEmbedder is the embedder the digital library engine uses.
func DefaultEmbedder() *HashEmbedder { return NewHashEmbedder(DefaultDim) }

// Name implements Embedder.
func (h *HashEmbedder) Name() string { return fmt.Sprintf("hash-v1/%d", h.dim) }

// Dim implements Embedder.
func (h *HashEmbedder) Dim() int { return h.dim }

// FNV-1a, 64-bit: the tokenizer-independent string hash behind the
// projection. fnvAdd continues a hash over s, so a bigram "prev tok" is
// hashed as prev, then ' ', then tok, without building the string.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Embed implements Embedder: EmbedTokens over ir.Analyze(text).
func (h *HashEmbedder) Embed(text string) []float32 {
	return h.EmbedTokens(ir.Analyze(text))
}

// EmbedTokens implements Embedder. The accumulation order is the token
// order, so the resulting float32 bits are a deterministic function of the
// token stream.
func (h *HashEmbedder) EmbedTokens(toks []string) []float32 {
	v := make([]float32, h.dim)
	dim := uint64(h.dim)
	for i, tok := range toks {
		hash := fnvAdd(fnvOffset, tok)
		w := float32(1)
		if hash>>63&1 == 1 {
			w = -1
		}
		v[int(hash%dim)] += w
		if i > 0 {
			bh := fnvAdd(fnvAdd(fnvAdd(fnvOffset, toks[i-1]), " "), tok)
			bw := float32(0.5)
			if bh>>63&1 == 1 {
				bw = -0.5
			}
			v[int(bh%dim)] += bw
		}
	}
	normalize(v)
	return v
}

// normalize scales v to unit L2 norm in place (no-op for the zero
// vector). The squared norm accumulates in float64 for one deterministic
// summation order.
func normalize(v []float32) {
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	if ss == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(ss))
	for i := range v {
		v[i] *= inv
	}
}

// Builder accumulates one segment's documents before composition: names
// and embeddings in insertion order. Local document ordinal = insertion
// position; the global DocID is assigned when NewSegments composes
// builders into a Segments reader. A filled Builder is immutable by
// convention and may back any number of Segments compositions.
type Builder struct {
	dim   int
	names segfile.Table
	vecs  []float32 // len = dim * names.Len(), row-major
}

// NewBuilder starts an empty segment for e's embedding space.
func NewBuilder(e Embedder) *Builder {
	return &Builder{dim: e.Dim()}
}

// AddTokens embeds a document and appends it as the next one: toks must be
// what ir.Analyze (or an ir.Analyzer) returned for its text. The slice is
// not kept.
func (b *Builder) AddTokens(name string, toks []string, e Embedder) {
	if e.Dim() != b.dim {
		panic(fmt.Sprintf("vec: embedder dim %d does not match builder dim %d", e.Dim(), b.dim))
	}
	b.names.Append(name)
	b.vecs = append(b.vecs, e.EmbedTokens(toks)...)
}

// Len returns the number of documents added.
func (b *Builder) Len() int { return b.names.Len() }

// Dim returns the embedding dimension.
func (b *Builder) Dim() int { return b.dim }

// Name returns document i's name.
func (b *Builder) Name(i int) string { return b.names.At(i) }

// Vec returns document i's embedding (aliasing the builder's storage).
func (b *Builder) Vec(i int) []float32 { return b.vecs[i*b.dim : (i+1)*b.dim] }
