package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100_000},
		// Two sequential children.
		{ID: 1, Parent: 0, Name: "parse", Start: 0, End: 10_000},
		{ID: 2, Parent: 0, Name: "search", Start: 10_000, End: 90_000},
		// Concurrent legs of the search overlap: their union is 20..70.
		{ID: 3, Parent: 2, Name: "leg", Start: 20_000, End: 60_000},
		{ID: 4, Parent: 2, Name: "leg", Start: 30_000, End: 70_000},
		// A replica child ran after its parent; its duration counts.
		{ID: 5, Parent: 2, Name: "page", Start: 200_000, End: 205_000, Replica: true},
		// A leg's own replica child.
		{ID: 6, Parent: 3, Name: "score", Start: 300_000, End: 330_000, Replica: true},
	}
	st := timesOf(spans)
	want := map[string]float64{
		"request": 100 - 10 - 80, // minus parse and search
		"parse":   10,
		"search":  80 - 50 - 5, // minus the legs' union and the replica
		"page":    5,
		"score":   30,
	}
	for name, w := range want {
		if got := st.self[name][0]; got != w {
			t.Errorf("self time of %s = %v us, want %v", name, got, w)
		}
	}
	if got := st.self["leg"]; got[0] != 40-30 || got[1] != 40 {
		t.Errorf("self times of the legs = %v, want [10 40]", got)
	}
	if got := st.total["search"][0]; got != 80 {
		t.Errorf("total of search = %v, want 80", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.nextRequest()
	root := tr.begin("request")
	child := tr.in("parse", func() {})
	tr.end(root)
	rep := tr.replica(child, "inner", func() { tr.in("deeper", func() {}) })
	tr.add(root, "leg", 1, 2)
	tr.rename(child, "parse_hit")
	s := tr.spans
	if s[child].Parent != root || s[rep].Parent != child || !s[rep].Replica {
		t.Errorf("parents wrong: %+v", s)
	}
	if s[rep+1].Name != "deeper" || s[rep+1].Parent != rep {
		t.Errorf("span inside a replica must nest under it: %+v", s[rep+1])
	}
	if s[len(s)-1].Parent != root || s[child].Name != "parse_hit" || s[root].Req != 1 {
		t.Errorf("add/rename/request id wrong: %+v", s)
	}
}
