package dlse

// Reciprocal rank fusion: the merge operator of the hybrid lane. Both
// input rankings are already deterministic total orders (score desc,
// global DocID asc — the lexical lane's merge invariant and the vector
// lane's, see internal/ir and internal/vec), so fused scores are sums of
// exactly-representable reciprocals accumulated in a fixed lane order,
// and the fused ranking is again a pure function of the engine snapshot.
// A page's fusion is bounded (FuseCandidates over each lane's top
// fuseDepth): the node and the router both fuse through it, which is what
// keeps hybrid answers byte-identical between a single node and a
// scatter-gathered cluster; FuseRRF over full rankings is the depth-0
// fusion and the oracle both are locked against.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ir"
	"repro/internal/vec"
)

// RRFK is the reciprocal-rank-fusion constant: a document at rank r
// (1-based) contributes 1/(RRFK+r) per lane. 60 is the standard choice
// from the original RRF paper; it damps the head of each ranking enough
// that one lane cannot dominate the fusion.
const RRFK = 60

// FuseRRF fuses ranked lanes by reciprocal rank fusion. Documents are
// identified by Item.Doc (the lanes must share a doc ID space — the
// lexical and vector lanes number the same pages alike). Item
// metadata is taken from the first lane that ranked the document; Score
// becomes the RRF score. The fused order is (score desc, Doc asc).
func FuseRRF(lanes ...[]Item) []Item {
	type fused struct {
		item  Item
		score float64
	}
	byDoc := make(map[ir.DocID]*fused)
	var order []*fused
	for _, lane := range lanes {
		for r, it := range lane {
			f := byDoc[it.Doc]
			if f == nil {
				f = &fused{item: it}
				byDoc[it.Doc] = f
				order = append(order, f)
			}
			f.score += 1 / float64(RRFK+r+1)
		}
	}
	out := make([]Item, len(order))
	for i, f := range order {
		f.item.Score = f.score
		out[i] = f.item
	}
	sortFused(out)
	return out
}

// sortFused orders fused items by (score desc, Doc asc).
func sortFused(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Score != items[j].Score {
			return items[i].Score > items[j].Score
		}
		return items[i].Doc < items[j].Doc
	})
}

// fuseDepth is how deep each lane must be ranked for fuseTop to return the
// exact top d of the fusion: D = 2d+RRFK. The top d of either lane alone
// already score at least 1/(RRFK+d); a document outside the top D of both
// scores at most 2/(RRFK+D+1) = 2/(2(RRFK+d)+1) < 1/(RRFK+d) — by a relative
// 1/(2(RRFK+d)+1), far above float64 rounding. So d documents inside the
// two top-D lists strictly beat everything outside them, and the fused top
// d lies within their union whatever the ties: one pass, no iteration.
func fuseDepth(d int) int {
	if d <= 0 {
		return 0
	}
	return 2*d + RRFK
}

// FuseDepths clamps a page depth (Depth; 0 ranks everything) to the n
// documents of the hybrid lane and returns it with the depth each lane must
// be ranked to for FuseCandidates to give the fusion's exact top d:
// fuseDepth(d), at most n. The clamp comes before the doubling because depth
// is client input — a forged cursor makes Depth saturate at MaxInt.
func FuseDepths(depth, n int) (d, lane int) {
	d = min(max(depth, 0), n)
	return d, min(fuseDepth(d), n)
}

// fuseTop is FuseRRF's top d computed from the top fuseDepth(d) of each
// lane, the node's bounded fusion: it counts each candidate's rank in the
// lane that did not list it over that lane's still leased scores and fuses
// the candidates (FuseCandidates).
func fuseTop(d int, lex, vec []ir.Hit, lexScores, vecScores ir.SegScores) []Item {
	return FuseCandidates(d, lex, vec, vecScores.Ranks(lex), lexScores.Ranks(vec))
}

// FuseCandidates is FuseRRF's top d computed from the top fuseDepth(d) of
// each lane — the one bounded fusion, which the node (fuseTop) and the
// router (over gathered legs) both call. The candidates are the union of the
// two hit lists; vecOfLex[i] is lex[i]'s 1-based rank in the vector lane and
// lexOfVec[i] vec[i]'s in the lexical lane, 0 where that lane did not score
// the document. Every candidate gets the reciprocal ranks, the sum in lane
// order and hence the float64 bits FuseRRF over the full rankings gives it,
// under the same order. Both lanes name a shared document alike (the engine
// indexes them from the same pages): either hit is its metadata.
func FuseCandidates(d int, lex, vec []ir.Hit, vecOfLex, lexOfVec []int) []Item {
	rr := func(rank int) float64 { // one lane's term: exactly 0 where it did not rank the document
		if rank == 0 {
			return 0
		}
		return 1 / float64(RRFK+rank)
	}
	cands := make([]Item, 0, len(lex)+len(vec))
	for i, h := range lex {
		cands = append(cands, Item{Page: h.Name, Doc: h.Doc, Score: rr(i+1) + rr(vecOfLex[i])})
	}
	for i, h := range vec {
		if r := lexOfVec[i]; r == 0 || r > len(lex) { // else lex listed it already
			cands = append(cands, Item{Page: h.Name, Doc: h.Doc, Score: rr(r) + rr(i+1)})
		}
	}
	sortFused(cands)
	// Copied out to size: what is returned is what a cache retains.
	return append([]Item(nil), cands[:min(d, len(cands))]...)
}

// hitItems converts a ranked lane's hits (lexical or vector) to result items.
func hitItems(hits []ir.Hit) []Item {
	items := make([]Item, len(hits))
	for i, h := range hits {
		items[i] = Item{Page: h.Name, Doc: h.Doc, Score: h.Score}
	}
	return items
}

// textOpStat renders one text-lane scatter as an explain operator: the
// folded kernel stats on the operator, one entry per segment below it when
// the scatter had more than one leg.
func textOpStat(op string, d time.Duration, items int, stats ir.SearchStats, perSeg []ir.SegStat) OpStat {
	out := OpStat{Op: op, Duration: clampDur(d), Items: items, Kernel: &stats}
	if len(perSeg) > 1 {
		for si, ss := range perSeg {
			kernel := ss.Stats
			out.Segments = append(out.Segments, OpStat{
				Op: fmt.Sprintf("%s[%d]", op, si), Duration: clampDur(ss.Duration),
				Items: kernel.DocsTouched, Kernel: &kernel,
			})
		}
	}
	return out
}

// vecOpStat renders one vector-lane scatter as an explain operator.
func vecOpStat(op string, d time.Duration, items int, perSeg []vec.SegStat) OpStat {
	out := OpStat{Op: op, Duration: clampDur(d), Items: items}
	if len(perSeg) > 1 {
		for si, ss := range perSeg {
			out.Segments = append(out.Segments, OpStat{
				Op: fmt.Sprintf("%s[%d]", op, si), Duration: clampDur(ss.Duration),
				Items: ss.Stats.DocsScanned,
			})
		}
	}
	return out
}
