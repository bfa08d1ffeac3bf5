package dlse

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/webspace"
)

// fixture builds a small site plus a video meta-index containing events for
// the finals' videos.
func fixture(t *testing.T) (*Engine, *webspace.Site) {
	t.Helper()
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
		Players: 40, YearStart: 1998, YearEnd: 2001, Seed: 27,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	// Register every final's video with synthetic net-play and rally
	// events (skipping the actual pixel pipeline for speed; the fde tests
	// cover that path).
	for _, vid := range site.W.All("Video") {
		v, _ := site.W.Get(vid)
		vrec := core.Video{Name: v.StringAttr("name"), Width: 160, Height: 120, FPS: 25, Frames: 500}
		id := idx.AddVideo(vrec)
		seg := idx.AddSegment(core.Segment{VideoID: id, Interval: core.Interval{Start: 0, End: 200}, Class: "tennis"})
		idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "net-play", Interval: core.Interval{Start: 120, End: 180}, Confidence: 0.9})
		idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "rally", Interval: core.Interval{Start: 0, End: 100}, Confidence: 0.8})
	}
	e, err := NewSegmented(site, core.SingleSegment(idx.Freeze()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, site
}

// searchAll answers a structured request in full through SearchAll.
func searchAll(t *testing.T, e *Engine, req Request) []Item {
	t.Helper()
	rs, err := e.SearchAll(context.Background(), Query{Request: &req}, false)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Items
}

func TestMotivatingQueryEndToEnd(t *testing.T) {
	e, site := fixture(t)
	req, err := ParseRequest(site.W.Schema(), MotivatingQueryText)
	if err != nil {
		t.Fatal(err)
	}
	results := searchAll(t, e, req)
	// Compare against brute-force truth.
	truth := map[int64]bool{}
	for _, id := range site.W.All("Player") {
		p, _ := site.W.Get(id)
		if p.StringAttr("sex") == "female" && p.StringAttr("handedness") == "left" && len(p.Links["wonFinals"]) > 0 {
			truth[id] = true
		}
	}
	if len(results) != len(truth) {
		t.Fatalf("results = %d, truth = %d", len(results), len(truth))
	}
	for _, r := range results {
		if !truth[r.Object.ID] {
			t.Fatalf("wrong player %d in results", r.Object.ID)
		}
		// Every champion's final video has a net-play scene.
		if len(r.Scenes) == 0 {
			t.Fatalf("player %s has no net-play scenes", r.Object.StringAttr("name"))
		}
		for _, s := range r.Scenes {
			if s.Event.Kind != "net-play" {
				t.Fatalf("scene of kind %s", s.Event.Kind)
			}
			if !strings.HasPrefix(s.Video.Name, "ausopen-") {
				t.Fatalf("scene video %q", s.Video.Name)
			}
		}
	}
}

func TestKeywordBaselineCannotExpressJoin(t *testing.T) {
	e, site := fixture(t)
	// The best keyword formulation of the motivating query.
	rs, err := e.Search(context.Background(),
		Query{Keyword: "left-handed female champion australian open final"}, WithLimit(20))
	if err != nil {
		t.Fatal(err)
	}
	// Map the matched pages back to their objects (doc ID = page position).
	seen := map[int64]bool{}
	var objIDs []int64
	for _, it := range rs.Items {
		if oid := site.Pages[it.Doc].ObjectID; !seen[oid] {
			seen[oid] = true
			objIDs = append(objIDs, oid)
		}
	}
	truth := map[int64]bool{}
	for _, id := range site.W.All("Player") {
		p, _ := site.W.Get(id)
		if p.StringAttr("sex") == "female" && p.StringAttr("handedness") == "left" && len(p.Links["wonFinals"]) > 0 {
			truth[id] = true
		}
	}
	// Precision of the keyword result against the true answer set.
	correct := 0
	for _, id := range objIDs {
		if truth[id] {
			correct++
		}
	}
	keywordPrecision := 0.0
	if len(objIDs) > 0 {
		keywordPrecision = float64(correct) / float64(len(objIDs))
	}
	// The conceptual query is exact (precision 1); the keyword baseline
	// must be strictly worse on this site — that is the paper's argument.
	if keywordPrecision >= 1 {
		t.Fatalf("keyword baseline unexpectedly perfect (%d/%d)", correct, len(objIDs))
	}
}

func TestQueryTextRanking(t *testing.T) {
	e, site := fixture(t)
	req, err := ParseRequest(site.W.Schema(), `find Player where exists wonFinals rank "dream childhood crowd" via interviews limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	results := searchAll(t, e, req)
	if len(results) == 0 {
		t.Fatal("no ranked results")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Fatal("results not sorted by text score")
		}
	}
	if results[0].Score <= 0 {
		t.Fatal("top result has zero text score despite matching interview text")
	}
}

func TestRequireScenes(t *testing.T) {
	e, site := fixture(t)
	// Videos exist for finals only; querying scenes via interviews path
	// yields nothing, so required scenes filters everything out.
	req := Request{
		Class:         "Player",
		SceneKind:     "net-play",
		VideoPath:     []string{"interviews"},
		RequireScenes: true,
	}
	results := searchAll(t, e, req)
	if len(results) != 0 {
		t.Fatalf("interview path produced %d scene results", len(results))
	}
	_ = site
}

func TestQueryLimit(t *testing.T) {
	e, site := fixture(t)
	req, err := ParseRequest(site.W.Schema(), `find Player limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	results := searchAll(t, e, req)
	if len(results) != 3 {
		t.Fatalf("limit ignored: %d results", len(results))
	}
	// Answers are cached whole: a limited one must not keep the array that
	// held every candidate alive.
	if cap(results) > 2*len(results) {
		t.Fatalf("answer of %d items pins an array of %d", len(results), cap(results))
	}
}

func TestParseRequestForms(t *testing.T) {
	_, site := fixture(t)
	s := site.W.Schema()
	good := []string{
		`find Player`,
		`find Player where sex = "female"`,
		`find Player where sex = female`,
		`find Final where year >= 2000 and category != "men"`,
		`find Player where contains(bio, "baseline")`,
		`find Player where contains(wonFinals.report, "championship")`,
		`find Player where exists wonFinals scenes "rally" via wonFinals.video required`,
		`find Player rank "tennis" limit 2`,
		`find Player where wonFinals.year = 2001`,
	}
	for _, q := range good {
		if _, err := ParseRequest(s, q); err != nil {
			t.Errorf("rejected %q: %v", q, err)
		}
	}
	bad := []string{
		``,
		`where sex = "f"`,
		`find Ghost`,
		`find Player where rank = 1`,            // unknown attribute
		`find Player where wonFinals.ghost = 1`, // unknown path attr
		`find Player where nothere.year = 1`,    // unknown role
		`find Player where year = "x" trailing`, // unknown attr + trailing
		`find Final where year = "notanumber"`,  // type mismatch
		`find Player scenes "x"`,                // missing via
		`find Player limit many`,                // bad limit
		`find Player where contains(bio "x")`,   // missing comma
		`find Player where sex = "unterminated`, // bad string
	}
	for _, q := range bad {
		if _, err := ParseRequest(s, q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestParsedConstraintTypes(t *testing.T) {
	_, site := fixture(t)
	req, err := ParseRequest(site.W.Schema(), `find Final where year >= 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := req.Where[0].Val.(int64); !ok || v != 2000 {
		t.Fatalf("year coerced to %T %v", req.Where[0].Val, req.Where[0].Val)
	}
	results := searchAll(t, fixtureEngine(t, site), req)
	if len(results) != 4 { // 2000, 2001 × 2 categories
		t.Fatalf("finals >= 2000: %d", len(results))
	}
}

func fixtureEngine(t *testing.T, site *webspace.Site) *Engine {
	t.Helper()
	e, err := NewSegmented(site, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewSegmented(nil, nil, Options{}); err == nil {
		t.Fatal("nil site accepted")
	}
}

func TestEngineAccessors(t *testing.T) {
	e, _ := fixture(t)
	if e.Space() == nil || e.TextIndex() == nil || e.VideoIndex() == nil {
		t.Fatal("accessors returned nil")
	}
	hits, err := e.Search(context.Background(), Query{Keyword: "melbourne"}, WithLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits.Items) == 0 {
		t.Fatal("keyword search found nothing for 'melbourne'")
	}
}
