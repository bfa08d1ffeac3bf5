package webspace

import (
	"sort"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := AusOpenSchema()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaConstruction(t *testing.T) {
	s := testSchema(t)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"Final", "Interview", "Player", "Video"}
	var got []string
	for name := range s.Classes {
		got = append(got, name)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("classes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("classes = %v, want %v", got, want)
		}
	}
	p := s.Classes["Player"]
	if p.Assocs["wonFinals"].Target != "Final" || !p.Assocs["wonFinals"].Many {
		t.Fatalf("wonFinals assoc = %+v", p.Assocs["wonFinals"])
	}
}

func TestSchemaErrors(t *testing.T) {
	s := NewSchema("t")
	if _, err := s.AddClass("", nil); err == nil {
		t.Fatal("empty class name accepted")
	}
	_, _ = s.AddClass("A", map[string]AttrType{"x": AttrInt})
	if _, err := s.AddClass("A", nil); err == nil {
		t.Fatal("duplicate class accepted")
	}
	if err := s.AddAssoc("A", "r", "Missing", false); err == nil {
		t.Fatal("assoc to unknown class accepted")
	}
	if err := s.AddAssoc("Missing", "r", "A", false); err == nil {
		t.Fatal("assoc from unknown class accepted")
	}
	if err := s.AddAssoc("A", "x", "A", false); err == nil {
		t.Fatal("role colliding with attribute accepted")
	}
	_ = s.AddAssoc("A", "r", "A", false)
	if err := s.AddAssoc("A", "r", "A", false); err == nil {
		t.Fatal("duplicate role accepted")
	}
	if err := NewSchema("empty").Validate(); err == nil {
		t.Fatal("empty schema validated")
	}
}

func TestObjectCreationValidation(t *testing.T) {
	w, err := New(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewObject("Ghost", nil); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := w.NewObject("Player", map[string]any{"rank": int64(1)}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := w.NewObject("Player", map[string]any{"name": 42}); err == nil {
		t.Fatal("wrong attribute type accepted")
	}
	p, err := w.NewObject("Player", map[string]any{"name": "Ana", "sex": "female"})
	if err != nil {
		t.Fatal(err)
	}
	if p.ID == 0 || len(w.All("Player")) != 1 {
		t.Fatal("object not materialized")
	}
}

func TestLinkValidation(t *testing.T) {
	w, _ := New(testSchema(t))
	p, _ := w.NewObject("Player", map[string]any{"name": "Ana"})
	f, _ := w.NewObject("Final", map[string]any{"year": int64(2000)})
	if err := w.Link(f, "winner", p); err != nil {
		t.Fatal(err)
	}
	if err := w.Link(f, "nonrole", p); err == nil {
		t.Fatal("unknown role accepted")
	}
	if err := w.Link(f, "winner", p); err == nil {
		t.Fatal("to-one role linked twice")
	}
	if err := w.Link(p, "wonFinals", f); err != nil {
		t.Fatal(err)
	}
	f2, _ := w.NewObject("Final", map[string]any{"year": int64(2001)})
	if err := w.Link(p, "wonFinals", f2); err != nil {
		t.Fatal("to-many role rejected second link")
	}
	v, _ := w.NewObject("Video", map[string]any{"name": "v"})
	if err := w.Link(f, "winner", v); err == nil {
		t.Fatal("wrong target class accepted")
	}
}

func genSite(t *testing.T) *Site {
	t.Helper()
	site, err := GenerateAusOpen(SiteConfig{Players: 40, YearStart: 1995, YearEnd: 2001, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestGenerateAusOpenStructure(t *testing.T) {
	site := genSite(t)
	w := site.W
	if len(w.All("Player")) != 40 {
		t.Fatalf("players = %d", len(w.All("Player")))
	}
	years := 2001 - 1995 + 1
	if len(w.All("Final")) != years*2 {
		t.Fatalf("finals = %d, want %d", len(w.All("Final")), years*2)
	}
	if len(w.All("Video")) != years*2 || len(w.All("Interview")) != years*2 {
		t.Fatal("videos/interviews missing")
	}
	// Pages: one per player + 2 per final (report + interview).
	wantPages := 40 + years*2*2
	if len(site.Pages) != wantPages {
		t.Fatalf("pages = %d, want %d", len(site.Pages), wantPages)
	}
	// Every final links winner, runnerup and video; winner is of the right
	// sex and actually links back.
	for _, id := range w.All("Final") {
		f, _ := w.Get(id)
		for _, role := range []string{"winner", "runnerup", "video"} {
			if len(f.Links[role]) != 1 {
				t.Fatalf("final %d missing %s", id, role)
			}
		}
		winner, _ := w.Get(f.Links["winner"][0])
		cat := f.StringAttr("category")
		wantSex := "female"
		if cat == "men" {
			wantSex = "male"
		}
		if winner.StringAttr("sex") != wantSex {
			t.Fatalf("final %d: %s winner has sex %s", id, cat, winner.StringAttr("sex"))
		}
		back := false
		for _, fid := range winner.Links["wonFinals"] {
			if fid == f.ID {
				back = true
			}
		}
		if !back {
			t.Fatalf("winner of final %d lacks wonFinals backlink", id)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSite(t)
	b := genSite(t)
	if len(a.Pages) != len(b.Pages) {
		t.Fatal("page counts differ")
	}
	for i := range a.Pages {
		if a.Pages[i] != b.Pages[i] {
			t.Fatalf("page %d differs between runs", i)
		}
	}
}

func TestMotivatingQuery(t *testing.T) {
	site := genSite(t)
	got, err := site.W.Run(MotivatingQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Verify against brute-force truth.
	truth := map[int64]bool{}
	for _, id := range site.W.All("Player") {
		p, _ := site.W.Get(id)
		if p.StringAttr("sex") == "female" && p.StringAttr("handedness") == "left" && len(p.Links["wonFinals"]) > 0 {
			truth[id] = true
		}
	}
	if len(got) != len(truth) {
		t.Fatalf("query returned %d players, truth has %d", len(got), len(truth))
	}
	for _, o := range got {
		if !truth[o.ID] {
			t.Fatalf("player %d wrongly returned", o.ID)
		}
	}
	// The query result must be non-trivial for the experiment to mean
	// anything; with 20 women over 7 years this holds for seed 27.
	if len(got) == 0 {
		t.Fatal("motivating query has empty answer; pick a different seed")
	}
}

func TestQueryPathValidation(t *testing.T) {
	site := genSite(t)
	if _, err := site.W.Run(Query{Class: "Ghost"}); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := site.W.Run(Query{Class: "Player", Where: []Constraint{{Path: []string{"nothere"}}}}); err == nil {
		t.Fatal("unknown role accepted")
	}
	if _, err := site.W.Run(Query{Class: "Player", Where: []Constraint{{Attr: "nope", Op: OpEq, Val: "x"}}}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	// Path attribute checked at the path's end class.
	if _, err := site.W.Run(Query{Class: "Player", Where: []Constraint{{Path: []string{"wonFinals"}, Attr: "year", Op: OpGe, Val: int64(2000)}}}); err != nil {
		t.Fatalf("valid path query rejected: %v", err)
	}
}

func TestQueryPathSemantics(t *testing.T) {
	site := genSite(t)
	// Champions of year >= 2000 via path constraint.
	got, err := site.W.Run(Query{Class: "Player", Where: []Constraint{
		{Path: []string{"wonFinals"}, Attr: "year", Op: OpGe, Val: int64(2000)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	truth := 0
	for _, id := range site.W.All("Player") {
		p, _ := site.W.Get(id)
		hit := false
		for _, fid := range p.Links["wonFinals"] {
			f, _ := site.W.Get(fid)
			if boxed(f, "year").(int64) >= 2000 {
				hit = true
			}
		}
		if hit {
			truth++
		}
	}
	if len(got) != truth {
		t.Fatalf("path query = %d, truth = %d", len(got), truth)
	}
}

func TestQueryOperators(t *testing.T) {
	site := genSite(t)
	finals2001, err := site.W.Run(Query{Class: "Final", Where: []Constraint{
		{Attr: "year", Op: OpEq, Val: int64(2001)},
	}})
	if err != nil || len(finals2001) != 2 {
		t.Fatalf("year=2001 finals = %d, %v", len(finals2001), err)
	}
	notWomen, _ := site.W.Run(Query{Class: "Final", Where: []Constraint{
		{Attr: "category", Op: OpNe, Val: "women"},
	}})
	if len(notWomen) != 7 {
		t.Fatalf("men finals = %d", len(notWomen))
	}
	contains, _ := site.W.Run(Query{Class: "Player", Where: []Constraint{
		{Attr: "bio", Op: OpContains, Val: "LEFT-handed"},
	}})
	for _, o := range contains {
		if o.StringAttr("handedness") != "left" {
			t.Fatal("contains matched non-lefty bio")
		}
	}
	lt, _ := site.W.Run(Query{Class: "Final", Where: []Constraint{
		{Attr: "year", Op: OpLt, Val: int64(1996)},
	}})
	if len(lt) != 2 {
		t.Fatalf("finals before 1996 = %d", len(lt))
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	if _, err := GenerateAusOpen(SiteConfig{Players: 3}); err == nil {
		t.Fatal("too few players accepted")
	}
	if _, err := GenerateAusOpen(SiteConfig{Players: 16, YearStart: 2001, YearEnd: 1990}); err == nil {
		t.Fatal("inverted year range accepted")
	}
}

func TestPagesMentionConceptsButNotJoins(t *testing.T) {
	// The crux of the webspace argument: handedness appears only on player
	// pages, titles only on final pages — a keyword engine cannot join.
	site := genSite(t)
	for _, pg := range site.Pages {
		lower := strings.ToLower(pg.Text)
		switch {
		case strings.HasPrefix(pg.Name, "finals/"):
			if strings.Contains(lower, "handed") {
				t.Fatalf("final page %s leaks handedness", pg.Name)
			}
		case strings.HasPrefix(pg.Name, "players/"):
			if strings.Contains(lower, "defeated") || strings.Contains(lower, "championship") {
				t.Fatalf("player page %s leaks titles", pg.Name)
			}
		}
	}
}

func TestAttrTypeString(t *testing.T) {
	for at, want := range map[AttrType]string{
		AttrString: "string", AttrInt: "int", AttrFloat: "float",
		AttrBool: "bool", AttrText: "text",
	} {
		if at.String() != want {
			t.Errorf("%d = %q", at, at.String())
		}
	}
}
