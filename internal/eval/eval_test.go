package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPRBasics(t *testing.T) {
	pr := PR{TP: 8, FP: 2, FN: 2}
	if pr.Precision() != 0.8 || pr.Recall() != 0.8 {
		t.Fatalf("P=%v R=%v", pr.Precision(), pr.Recall())
	}
	if f1 := pr.F1(); f1 < 0.8-1e-12 || f1 > 0.8+1e-12 {
		t.Fatalf("F1=%v", f1)
	}
	empty := PR{}
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Fatal("empty PR should be perfect")
	}
	if (PR{FP: 1}).F1() != 0 {
		t.Fatal("all-wrong F1 should be 0")
	}
	var acc PR
	acc.Add(pr)
	acc.Add(PR{TP: 1})
	if acc.TP != 9 || acc.FP != 2 || acc.FN != 2 {
		t.Fatalf("Add = %+v", acc)
	}
}

func TestAtK(t *testing.T) {
	rel := map[string]bool{"a": true, "c": true, "e": true}
	ranked := []string{"a", "b", "c", "d", "e"}
	// First two: a hit, b miss; c and e not reached.
	if pr := AtK(ranked, rel, 2); pr != (PR{TP: 1, FP: 1, FN: 2}) {
		t.Fatalf("AtK k=2 = %+v", pr)
	}
	pr := AtK(ranked, rel, 4)
	if pr.Precision() != 0.5 || pr.Recall() != 2.0/3.0 {
		t.Fatalf("P@4=%v R@4=%v", pr.Precision(), pr.Recall())
	}
	// k past the list scores the list as it stands.
	if pr := AtK(ranked, rel, 10); pr != (PR{TP: 3, FP: 2, FN: 0}) {
		t.Fatalf("AtK k=10 = %+v", pr)
	}
	if pr := AtK(nil, rel, 10); pr != (PR{FN: 3}) || pr.Recall() != 0 {
		t.Fatalf("AtK empty list = %+v", pr)
	}
}

func TestNDCG(t *testing.T) {
	rel := map[int]bool{1: true, 3: true}
	// Relevant at ranks 1 and 3: (1 + 1/log2 4) / (1 + 1/log2 3).
	want := (1 + 0.5) / (1 + 1/math.Log2(3))
	if got := NDCG([]int{1, 2, 3}, rel, 10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("NDCG = %v, want %v", got, want)
	}
	if got := NDCG([]int{3, 1, 2}, rel, 10); got != 1 {
		t.Fatalf("ideal order NDCG = %v", got)
	}
	// Cut at k=1: the ideal list has one relevant item in one slot.
	if got := NDCG([]int{2, 1, 3}, rel, 1); got != 0 {
		t.Fatalf("NDCG@1 = %v", got)
	}
	// Relevant at rank 2 only, k=2: (1/log2 3) / (1 + 1/log2 3).
	want = (1 / math.Log2(3)) / (1 + 1/math.Log2(3))
	if got := NDCG([]int{2, 1}, rel, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("NDCG@2 = %v, want %v", got, want)
	}
	if got := NDCG([]int{5}, map[int]bool{}, 10); got != 1 {
		t.Fatalf("nothing relevant: NDCG = %v", got)
	}
}

func TestMatchBoundaries(t *testing.T) {
	pr := MatchBoundaries([]int{10, 50, 90}, []int{11, 52, 200}, 3)
	if pr.TP != 2 || pr.FP != 1 || pr.FN != 1 {
		t.Fatalf("pr = %+v", pr)
	}
	// A truth can match only one detection.
	pr = MatchBoundaries([]int{10, 11}, []int{10}, 3)
	if pr.TP != 1 || pr.FP != 1 {
		t.Fatalf("double match: %+v", pr)
	}
	// Exact tolerance boundary.
	pr = MatchBoundaries([]int{13}, []int{10}, 3)
	if pr.TP != 1 {
		t.Fatalf("tol boundary: %+v", pr)
	}
	pr = MatchBoundaries([]int{14}, []int{10}, 3)
	if pr.TP != 0 {
		t.Fatalf("beyond tol: %+v", pr)
	}
	pr = MatchBoundaries(nil, nil, 3)
	if pr.TP != 0 || pr.FP != 0 || pr.FN != 0 {
		t.Fatalf("empty: %+v", pr)
	}
}

// Property: TP+FP = |detected| and TP+FN = |truth|.
func TestMatchBoundariesConservation(t *testing.T) {
	f := func(d, tr []uint8) bool {
		det := make([]int, len(d))
		for i, v := range d {
			det[i] = int(v)
		}
		tru := make([]int, len(tr))
		for i, v := range tr {
			tru[i] = int(v)
		}
		pr := MatchBoundaries(det, tru, 2)
		return pr.TP+pr.FP == len(det) && pr.TP+pr.FN == len(tru)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchIntervals(t *testing.T) {
	det := []Interval{
		{Start: 0, End: 10, Label: "rally"},
		{Start: 50, End: 60, Label: "net-play"},
		{Start: 100, End: 110, Label: "rally"},
	}
	truth := []Interval{
		{Start: 1, End: 11, Label: "rally"},    // matches det 0
		{Start: 50, End: 60, Label: "rally"},   // label mismatch with det 1
		{Start: 300, End: 310, Label: "rally"}, // unmatched
	}
	pr := MatchIntervals(det, truth, 0.5)
	if pr.TP != 1 || pr.FP != 2 || pr.FN != 2 {
		t.Fatalf("pr = %+v", pr)
	}
}

func TestMatchIntervalsBestIoUFirst(t *testing.T) {
	// Two detections overlap one truth; the better one must take it.
	det := []Interval{
		{Start: 0, End: 4, Label: "e"},  // IoU 4/10
		{Start: 0, End: 10, Label: "e"}, // IoU 1.0
	}
	truth := []Interval{{Start: 0, End: 10, Label: "e"}}
	pr := MatchIntervals(det, truth, 0.3)
	if pr.TP != 1 || pr.FP != 1 || pr.FN != 0 {
		t.Fatalf("pr = %+v", pr)
	}
}

func TestConfusionMatrix(t *testing.T) {
	c := NewConfusion("tennis", "close-up", "audience", "other")
	obs := []struct{ truth, pred string }{
		{"tennis", "tennis"}, {"tennis", "tennis"}, {"tennis", "other"},
		{"close-up", "close-up"}, {"audience", "audience"}, {"audience", "close-up"},
	}
	for _, o := range obs {
		if !c.Observe(o.truth, o.pred) {
			t.Fatalf("observe %v failed", o)
		}
	}
	if c.Observe("volleyball", "tennis") {
		t.Fatal("unknown label accepted")
	}
	if c.Total() != 6 {
		t.Fatalf("total = %d", c.Total())
	}
	if acc := c.Accuracy(); acc != 4.0/6.0 {
		t.Fatalf("accuracy = %v", acc)
	}
	pc := c.PerClass()
	tpr := pc["tennis"]
	if tpr.TP != 2 || tpr.FN != 1 || tpr.FP != 0 {
		t.Fatalf("tennis PR = %+v", tpr)
	}
	cu := pc["close-up"]
	if cu.TP != 1 || cu.FP != 1 {
		t.Fatalf("close-up PR = %+v", cu)
	}
	if NewConfusion("a").Accuracy() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}
