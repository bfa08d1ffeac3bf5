// Package core implements the COBRA video data model, the paper's primary
// contribution: a layered model of video content distinguishing — in line
// with MPEG-7 — four layers: the raw data, the feature, the object, and the
// event layer. Objects are entities with a prominent spatial dimension
// (e.g. a tennis player), events entities with a prominent temporal
// dimension (e.g. a net-play). The package also provides the meta-index,
// six typed tables of all extracted meta-data, which the Feature Detector
// Engine populates and the digital-library search engine
// queries.
package core

import "fmt"

// Interval is a half-open frame interval [Start, End).
type Interval struct {
	Start, End int
}

// NewInterval builds an interval, swapping ends if reversed.
func NewInterval(start, end int) Interval {
	if end < start {
		start, end = end, start
	}
	return Interval{Start: start, End: end}
}

// Len returns the interval length in frames.
func (iv Interval) Len() int { return iv.End - iv.Start }

// Empty reports whether the interval covers no frames.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Contains reports whether the frame lies inside the interval.
func (iv Interval) Contains(f int) bool { return f >= iv.Start && f < iv.End }

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	s, e := iv.Start, iv.End
	if o.Start > s {
		s = o.Start
	}
	if o.End < e {
		e = o.End
	}
	if e < s {
		e = s
	}
	return Interval{Start: s, End: e}
}

// Union returns the smallest interval covering both (the convex hull).
func (iv Interval) Union(o Interval) Interval {
	if iv.Empty() {
		return o
	}
	if o.Empty() {
		return iv
	}
	s, e := iv.Start, iv.End
	if o.Start < s {
		s = o.Start
	}
	if o.End > e {
		e = o.End
	}
	return Interval{Start: s, End: e}
}

// IoU returns the intersection-over-union of two intervals, in [0, 1].
// Two empty intervals have IoU 0.
func (iv Interval) IoU(o Interval) float64 {
	inter := iv.Intersect(o).Len()
	union := iv.Len() + o.Len() - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// String renders the interval.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Start, iv.End) }

// AllenRelation enumerates Allen's thirteen interval relations, the
// vocabulary of the spatio-temporal event rules ("rules, which use
// spatio-temporal relations" in the paper). The relations are defined over
// half-open integer intervals.
type AllenRelation int

// Allen's interval relations. For non-inverse relation R, a R b holds;
// the inverses are named with the -By/After convention.
const (
	RelBefore       AllenRelation = iota // a ends strictly before b starts
	RelMeets                             // a.End == b.Start
	RelOverlaps                          // a starts first, they overlap, a ends first
	RelStarts                            // same start, a ends first
	RelDuring                            // a strictly inside b
	RelFinishes                          // same end, a starts later
	RelEquals                            // identical
	RelFinishedBy                        // inverse of Finishes
	RelContains                          // inverse of During
	RelStartedBy                         // inverse of Starts
	RelOverlappedBy                      // inverse of Overlaps
	RelMetBy                             // inverse of Meets
	RelAfter                             // inverse of Before
)

// String names the relation.
func (r AllenRelation) String() string {
	names := [...]string{
		"before", "meets", "overlaps", "starts", "during", "finishes",
		"equals", "finished-by", "contains", "started-by", "overlapped-by",
		"met-by", "after",
	}
	if r < 0 || int(r) >= len(names) {
		return fmt.Sprintf("relation(%d)", int(r))
	}
	return names[r]
}

// Inverse returns the converse relation (a R b  <=>  b Inverse(R) a).
func (r AllenRelation) Inverse() AllenRelation { return RelAfter - r }

// Relation computes the Allen relation of a with respect to b.
// Both intervals must be non-empty; empty intervals yield RelBefore or
// RelAfter by their start positions as a degenerate convention.
func Relation(a, b Interval) AllenRelation {
	switch {
	case a.End < b.Start:
		return RelBefore
	case a.End == b.Start:
		return RelMeets
	case b.End < a.Start:
		return RelAfter
	case b.End == a.Start:
		return RelMetBy
	}
	// They overlap somewhere.
	switch {
	case a.Start == b.Start && a.End == b.End:
		return RelEquals
	case a.Start == b.Start:
		if a.End < b.End {
			return RelStarts
		}
		return RelStartedBy
	case a.End == b.End:
		if a.Start > b.Start {
			return RelFinishes
		}
		return RelFinishedBy
	case a.Start > b.Start && a.End < b.End:
		return RelDuring
	case a.Start < b.Start && a.End > b.End:
		return RelContains
	case a.Start < b.Start:
		return RelOverlaps
	default:
		return RelOverlappedBy
	}
}

// Overlaps reports whether the intervals share at least one frame.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start < o.End && o.Start < iv.End
}
