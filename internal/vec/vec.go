// Package vec is the second retrieval lane of the digital library: a
// pure-Go exact nearest-neighbor index over dense document embeddings,
// segmented and scatter-gathered exactly like the lexical kernel in
// internal/ir.
//
// The lane is built for determinism first. Embeddings come from a
// hash-projection ("LSA-style random indexing") embedder: a pure function
// of the analyzed token stream, no model weights, so every test is
// hermetic and every score is byte-reproducible. A document is stored as
// the embedder's integer pre-image — its per-coordinate counts at the
// narrowest exact width, and one scale — from which every float32
// coordinate is rebuilt bit for bit. Cosine similarity over L2-normalized
// vectors makes a document's score against a query independent of the
// rest of the corpus — the vec analog of ir's frozen BM25 impacts — so
// partitioning the corpus cannot perturb a single score bit.
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

// DefaultDim is the dimension of the default hash embedder — small
// enough that exhaustive scans stay cheap, large enough that unrelated
// token sets rarely collide into similar directions.
const DefaultDim = 64

// HashEmbedder is the lane's embedder: random-indexing projection of the
// analyzed token stream into a fixed-dimension space. Every unigram
// contributes ±1 to one hashed coordinate and every bigram contributes
// ±0.5 to another, accumulated in token order and L2-normalized.
// Tokenization reuses ir.Analyze, so the vector lane and the lexical lane
// agree on what a term is — and a build that analysed a page for the
// lexical lane feeds the same tokens here (Builder.AddTokens).
//
// Documents are stored as the embedding's integer pre-image, half-unit
// counts and one scale per text (countInto, scaleOf), which queries share
// and which rebuild every float32 coordinate bit for bit.
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

// Name identifies the embedding scheme; it is persisted with cached
// vectors so a cache built by a different embedder is refused.
func (h *HashEmbedder) Name() string { return fmt.Sprintf("hash-v1/%d", h.dim) }

// Dim is the embedding dimension.
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

// Embed returns the text's embedding: EmbedTokens over ir.Analyze(text).
// A text with no indexable tokens embeds to the zero vector.
func (h *HashEmbedder) Embed(text string) []float32 {
	return h.EmbedTokens(ir.Analyze(text))
}

// EmbedTokens is Embed for text already analysed: for every text,
// EmbedTokens(ir.Analyze(text)) equals Embed(text) bit for bit. It lets a
// caller analyse once and feed both lanes (or validate a query and embed
// it) without a second analysis.
func (h *HashEmbedder) EmbedTokens(toks []string) []float32 {
	v := make([]float32, h.dim)
	countInto(v, toks)
	s := scaleOf(v)
	for i := range v {
		v[i] *= s
	}
	return v
}

// countInto projects the token stream onto c, which must be zero, in
// half-units: each token adds ±2 to its hashed coordinate and each bigram
// ±1 to its own, in token order. A document counts into the int32 row it
// stores, where every sum is exact; a query counts straight into the
// float32 vector it scales, whose sums are exact below 2^24 and past that
// round as the ±1/±0.5 sums they double would.
func countInto[T int32 | float32](c []T, toks []string) {
	dim := uint64(len(c))
	for i, tok := range toks {
		hash := fnvAdd(fnvOffset, tok)
		w := T(2)
		if hash>>63&1 == 1 {
			w = -2
		}
		c[int(hash%dim)] += w
		if i > 0 {
			bh := fnvAdd(fnvAdd(fnvAdd(fnvOffset, toks[i-1]), " "), tok)
			bw := T(1)
			if bh>>63&1 == 1 {
				bw = -1
			}
			c[int(bh%dim)] += bw
		}
	}
}

// scaleOf returns the factor that maps half-unit counts onto their unit
// vector (0 for the zero vector): coordinate i is float32(c[i]) * scale.
//
// This is bit-exact with accumulating the ±1/±0.5 contributions in
// float32 and multiplying by inv = float32(1/√ss): those float32 sums are
// c[i]/2 exactly (half-integers below 2^23 are representable, so a
// document under 2^22 tokens never rounds), ss is the same float64 sum of
// the same squares in the same order, and inv*0.5 is exact, so
// float32(c)·(inv·0.5) and (c/2)·inv are one real number, rounded once.
func scaleOf[T int32 | float32](c []T) float32 {
	var ss float64
	for _, x := range c {
		v := float64(x) * 0.5
		ss += v * v
	}
	if ss == 0 {
		return 0
	}
	return float32(1/math.Sqrt(ss)) * 0.5
}

// Builder accumulates one segment's documents before composition: each
// document's half-unit counts, row-major at the narrowest width that holds
// the segment's largest |count| (see codes), and its scale. Local document
// ordinal = insertion position; the global DocID and the document's name
// are assigned when NewSegments composes builders into a Segments reader.
// A filled Builder is immutable by convention and may back any number of
// Segments compositions.
type Builder struct {
	emb   *HashEmbedder
	codes codes     // D*dim counts
	scale []float32 // by document
	row   []int32   // AddTokens' count buffer
}

// NewBuilder starts an empty segment for e's embedding space.
func NewBuilder(e *HashEmbedder) *Builder {
	return &Builder{emb: e, codes: codes{[]int8(nil)}}
}

// AddTokens embeds a document and appends it as the next one: toks must be
// what ir.Analyze (or an ir.Analyzer) returned for its text. The slice is
// not kept.
func (b *Builder) AddTokens(toks []string) {
	if b.row == nil {
		b.row = make([]int32, b.emb.dim)
	}
	clear(b.row)
	countInto(b.row, toks)
	b.scale = append(b.scale, scaleOf(b.row))
	b.codes = b.codes.appendRow(b.row)
}

// Len returns the number of documents added.
func (b *Builder) Len() int { return len(b.scale) }

// Dim returns the embedding dimension.
func (b *Builder) Dim() int { return b.emb.dim }

// codes is a segment's count matrix: vals is a []int8, []int16 or []int32,
// the narrowest of the three that holds the segment's largest |count|
// (widthFor). The rule depends on the counts alone, so a heap build and the
// file it writes hold the same matrix, and an opened file's matrix aliases
// its block.
type codes struct{ vals any }

// widthFor returns the narrowest code width in bytes, of 1, 2 and 4, that
// holds every count of magnitude at most m.
func widthFor(m int64) uint8 {
	switch {
	case m <= math.MaxInt8:
		return 1
	case m <= math.MaxInt16:
		return 2
	}
	return 4
}

// width returns the matrix's width in bytes.
func (c codes) width() uint8 {
	switch c.vals.(type) {
	case []int8:
		return 1
	case []int16:
		return 2
	}
	return 4
}

// bytes returns the matrix's memory image, aliasing it.
func (c codes) bytes() []byte {
	switch v := c.vals.(type) {
	case []int8:
		return segfile.Bytes(v)
	case []int16:
		return segfile.Bytes(v)
	}
	return segfile.Bytes(c.vals.([]int32))
}

// appendRow appends one document's counts, first widening the matrix when
// the row holds a count its width does not.
func (c codes) appendRow(row []int32) codes {
	var m int64
	for _, x := range row {
		m = max(m, int64(x), -int64(x))
	}
	switch max(c.width(), widthFor(m)) {
	case 1:
		return codes{appendCodes(c.vals.([]int8), row)}
	case 2:
		return codes{appendCodes(widen[int16](c.vals), row)}
	}
	return codes{appendCodes(widen[int32](c.vals), row)}
}

// widen returns vals, a []int8, []int16 or []int32 no wider than T, as a
// []T: vals itself when it already is one, a converted copy otherwise.
func widen[T int16 | int32](vals any) []T {
	switch v := vals.(type) {
	case []T:
		return v
	case []int8:
		return appendCodes(make([]T, 0, len(v)), v)
	case []int16:
		return appendCodes(make([]T, 0, len(v)), v)
	}
	panic(fmt.Sprintf("vec: cannot widen %T", vals))
}

// appendCodes appends src's values, each of which T holds, to dst.
func appendCodes[T, S int8 | int16 | int32](dst []T, src []S) []T {
	for _, x := range src {
		dst = append(dst, T(x))
	}
	return dst
}
