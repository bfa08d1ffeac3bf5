package dlse

// Reciprocal rank fusion: the merge operator of the hybrid lane. Both
// input rankings are already deterministic total orders (score desc,
// global DocID asc — the lexical lane's merge invariant and the vector
// lane's, see internal/ir and internal/vec), so fused scores are sums of
// exactly-representable reciprocals accumulated in a fixed lane order,
// and the fused ranking is again a pure function of the engine snapshot.
// The router fuses gathered cluster lanes with this same function, which
// is what keeps hybrid answers byte-identical between a single node and
// a scatter-gathered cluster.

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
// vector lane's doc space extends the lexical lane's, so page hits fuse
// across lanes and video hits ride the vector contribution alone). Item
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
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
