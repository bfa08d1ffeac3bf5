package grammar

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseTennisGrammar(t *testing.T) {
	g := Tennis()
	if g.Name != "tennis" {
		t.Fatalf("name = %q", g.Name)
	}
	if !reflect.DeepEqual(g.Atoms, []string{"video"}) {
		t.Fatalf("atoms = %v", g.Atoms)
	}
	if len(g.Detectors) != 5 {
		t.Fatalf("detectors = %d", len(g.Detectors))
	}
	seg := g.Detector("segment")
	if seg == nil || seg.Kind != BlackBox {
		t.Fatalf("segment detector = %+v", seg)
	}
	ten := g.Detector("tennis")
	if ten == nil || ten.Kind != WhiteBox || ten.Guard != "class==tennis" {
		t.Fatalf("tennis detector = %+v", ten)
	}
	if !reflect.DeepEqual(ten.Requires, []string{"shots", "classes"}) {
		t.Fatalf("tennis requires = %v", ten.Requires)
	}
	if g.Detector("ghost") != nil {
		t.Fatal("ghost detector found")
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing name":       "atom v; detector d requires v produces x whitebox;",
		"no detectors":       "grammar g; atom v;",
		"dup detector":       "grammar g; atom v; detector d requires v produces x whitebox; detector d requires v produces y whitebox;",
		"dup producer":       "grammar g; atom v; detector a requires v produces x whitebox; detector b requires v produces x whitebox;",
		"unknown require":    "grammar g; atom v; detector a requires nope produces x whitebox;",
		"no kind":            "grammar g; atom v; detector a requires v produces x;",
		"requires nothing":   "grammar g; atom v; detector a produces x whitebox;",
		"produces nothing":   "grammar g; atom v; detector a requires v whitebox;",
		"unknown statement":  "grammar g; widget w;",
		"produces atom name": "grammar g; atom v; detector a requires v produces v whitebox;",
	}
	for label, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted %q", label, src)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	src := `grammar g; atom v;
detector a requires v, y produces x whitebox;
detector b requires x produces y whitebox;`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestScheduleOrder(t *testing.T) {
	g := Tennis()
	sched, err := g.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, d := range sched {
		pos[d.Name] = i
	}
	if pos["segment"] > pos["tennis"] {
		t.Fatal("segment must run before tennis")
	}
	for _, ev := range []string{"netplay", "rally", "service"} {
		if pos["tennis"] > pos[ev] {
			t.Fatalf("tennis must run before %s", ev)
		}
	}
	if len(sched) != 5 {
		t.Fatalf("schedule covers %d detectors", len(sched))
	}
}

func TestDependsOn(t *testing.T) {
	g := Tennis()
	deps := g.DependsOn()
	if !reflect.DeepEqual(deps["tennis"], []string{"segment"}) {
		t.Fatalf("tennis deps = %v", deps["tennis"])
	}
	if !reflect.DeepEqual(deps["netplay"], []string{"tennis"}) {
		t.Fatalf("netplay deps = %v", deps["netplay"])
	}
	if len(deps["segment"]) != 0 {
		t.Fatalf("segment deps = %v", deps["segment"])
	}
}

// TestDOTOutput checks Figure 1 of the paper as cmd/fdegraph prints it:
// the tennis grammar's detector graph in Graphviz DOT form.
func TestDOTOutput(t *testing.T) {
	dot := Tennis().DOT()
	for _, want := range []string{
		`digraph "tennis"`,
		`"video" [shape=box]`,
		`"segment" -> "tennis"`,
		`"tennis" -> "netplay"`,
		`"tennis" -> "rally"`,
		`"tennis" -> "service"`,
		`"video" -> "segment"`,
		`fillcolor=lightgray`, // blackbox segment detector
		`class==tennis`,       // guard label
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Edge labels carry the flowing symbols.
	if !strings.Contains(dot, "shots") {
		t.Error("DOT missing symbol labels")
	}
}

func TestTextOutput(t *testing.T) {
	g := Tennis()
	txt := g.Text()
	for _, want := range []string{
		"feature grammar \"tennis\"",
		"atoms: video",
		"segment (blackbox)",
		"tennis (whitebox) [class==tennis]",
		"netplay",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("Text missing %q:\n%s", want, txt)
		}
	}
	// tennis must appear indented under segment.
	segIdx := strings.Index(txt, "segment (blackbox)")
	tenIdx := strings.Index(txt, "  tennis (whitebox)")
	if segIdx < 0 || tenIdx < 0 || tenIdx < segIdx {
		t.Fatalf("text tree misordered:\n%s", txt)
	}
}

func TestParseMultipleAtoms(t *testing.T) {
	g, err := Parse(`grammar g; atom audio, video;
detector d requires audio, video produces x whitebox;`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Atoms, []string{"audio", "video"}) {
		t.Fatalf("atoms = %v", g.Atoms)
	}
}

func TestParseComments(t *testing.T) {
	g, err := Parse(`
# a comment
grammar g; # inline
atom v;
detector d requires v produces x whitebox; # done
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "g" || len(g.Detectors) != 1 {
		t.Fatalf("parsed %+v", g)
	}
}

func TestKindString(t *testing.T) {
	if WhiteBox.String() != "whitebox" || BlackBox.String() != "blackbox" {
		t.Fatal("kind names wrong")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("garbage")
}

func TestDiamondDependency(t *testing.T) {
	// a -> b, a -> c, {b,c} -> d : d scheduled last.
	src := `grammar g; atom v;
detector a requires v produces s1 whitebox;
detector b requires s1 produces s2 whitebox;
detector c requires s1 produces s3 whitebox;
detector d requires s2, s3 produces s4 whitebox;`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sched, _ := g.Schedule()
	if sched[len(sched)-1].Name != "d" {
		t.Fatalf("d not last: %v", sched)
	}
}
