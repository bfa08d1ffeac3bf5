package dlse

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// mixedQueries is a workload spanning every operator combination the
// planner emits: concept-only, concept+video, concept+text, and all three.
var mixedQueries = []string{
	`find Player where sex = "female" and handedness = "left"`,
	`find Player where sex = "female" and handedness = "left" and exists wonFinals scenes "net-play" via wonFinals.video`,
	`find Player where handedness = "left" rank "champion final"`,
	MotivatingQueryText,
	`find Player where exists wonFinals scenes "rally" via wonFinals.video required rank "interview" limit 5`,
	`find Final scenes "net-play" via video`,
	`find Player where contains(bio, "LEFT-handed") and contains(playedFinals.winner.country, "ia")`,
}

// TestConcurrentQueriesMatchSequential hammers one shared Engine with many
// goroutines running the mixed workload and asserts every concurrent answer
// is deeply identical to the sequential golden answer. Run under -race this
// also locks in the engine's concurrent-read safety.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	e, site := fixture(t)
	schema := site.W.Schema()
	golden := make([][]Item, len(mixedQueries))
	reqs := make([]Request, len(mixedQueries))
	for i, q := range mixedQueries {
		req, err := ParseRequest(schema, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		reqs[i] = req
		res, err := e.SearchAll(context.Background(), Query{Request: &reqs[i]}, false)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		golden[i] = res.Items
	}

	const (
		goroutines = 8
		rounds     = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(reqs)
				res, err := e.SearchAll(context.Background(), Query{Request: &reqs[i]}, false)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Items, golden[i]) {
					t.Errorf("goroutine %d round %d query %d: concurrent result differs from sequential", g, r, i)
					return
				}
				if _, err := e.Search(context.Background(), Query{Keyword: "champion final"}, WithLimit(10)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanShapes locks the planner's compilation rules: which operators a
// request turns into.
func TestPlanShapes(t *testing.T) {
	e, _ := fixture(t)
	cases := []struct {
		req  Request
		want []OpKind
	}{
		{Request{Class: "Player"}, []OpKind{OpConcept}},
		{Request{Class: "Player", SceneKind: "net-play"}, []OpKind{OpConcept, OpVideo}},
		{Request{Class: "Player", Text: "champion"}, []OpKind{OpConcept, OpText}},
		{Request{Class: "Player", SceneKind: "net-play", Text: "champion"},
			[]OpKind{OpConcept, OpVideo, OpText}},
	}
	for i, tc := range cases {
		if got := e.Plan(tc.req).ops; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("case %d: plan = %v, want %v", i, got, tc.want)
		}
	}
}

// TestSearchContextCancelled verifies a cancelled context aborts execution.
func TestSearchContextCancelled(t *testing.T) {
	e, site := fixture(t)
	req, err := ParseRequest(site.W.Schema(), MotivatingQueryText)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SearchAll(ctx, Query{Request: &req}, false); err == nil {
		t.Fatal("cancelled context did not abort the query")
	}
}

// TestCanonicalKeyNormalization: semantically identical requests share a
// key; different requests do not.
func TestCanonicalKeyNormalization(t *testing.T) {
	a := Request{Class: "Player", Text: "Champion Interviews", Limit: 3}
	b := Request{Class: "Player", Text: "champion interview", Limit: 3} // stems identically
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("analyzer-equivalent rank texts got distinct keys:\n%s\n%s", a.CanonicalKey(), b.CanonicalKey())
	}
	c := Request{Class: "Player", Text: "champion interview", Limit: 4}
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Error("different limits share a cache key")
	}
	d := Request{Class: "Final", Text: "champion interview", Limit: 3}
	if a.CanonicalKey() == d.CanonicalKey() {
		t.Error("different classes share a cache key")
	}
}
