package rules

import (
	"math"
	"strings"
	"testing"
)

func geom() Geometry { return StandardGeometry(160, 120) }

func TestParseTennisRules(t *testing.T) {
	rs := TennisRules()
	if len(rs) != 3 {
		t.Fatalf("got %d rules", len(rs))
	}
	kinds := map[string]bool{}
	for _, r := range rs {
		kinds[r.Kind] = true
		if r.Object != "near" {
			t.Errorf("rule %s actor = %q", r.Kind, r.Object)
		}
		if r.MinLen <= 0 {
			t.Errorf("rule %s min length %d", r.Kind, r.MinLen)
		}
	}
	for _, k := range []string{"net-play", "service", "rally"} {
		if !kinds[k] {
			t.Errorf("missing rule %s", k)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"event x when for 5",
		"event x when in(near netzone) for 5",
		"event x when wibble(near) > 1 for 5",
		"event x when speed(near) >> 1 for 5",
		"event x when speed(near) > 1 for 0",
		"event x when speed(near) > 1 for -3",
		"event x when speed(near) > 1",
		"when speed(near) > 1 for 5",
		"event x when speed(near) = 1 for 5",
		"event x when (speed(near) > 1 for 5",
		"event x when in(near, netzone) for 5 garbage trailing",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParsePrecedenceAndNot(t *testing.T) {
	rs, err := Parse("event x when in(a, court) or in(b, court) and not in(c, court) for 3")
	if err != nil {
		t.Fatal(err)
	}
	// and binds tighter than or.
	want := "(in(a, court) or (in(b, court) and not in(c, court)))"
	if got := rs[0].Cond.String(); got != want {
		t.Fatalf("precedence: got %s, want %s", got, want)
	}
	if rs[0].Object != "a" {
		t.Fatalf("primary object = %q", rs[0].Object)
	}
}

func TestParseComments(t *testing.T) {
	rs, err := Parse("# header\nevent x when in(a, court) for 3 # trailing\n# tail\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Kind != "x" {
		t.Fatalf("rules = %v", rs)
	}
}

func TestValidateZones(t *testing.T) {
	rs := MustParse("event x when in(a, atlantis) for 3")
	if err := Validate(rs, geom()); err == nil || !strings.Contains(err.Error(), "atlantis") {
		t.Fatalf("Validate = %v", err)
	}
	if _, err := NewEngine(rs, geom()); err == nil {
		t.Fatal("engine accepted unknown zone")
	}
	if err := Validate(TennisRules(), geom()); err != nil {
		t.Fatalf("tennis rules invalid: %v", err)
	}
}

func TestZoneMembership(t *testing.T) {
	g := geom()
	net, _ := g.zone("netzone")
	if !net(80, g.NetY) || !net(80, g.NetY+g.NetDepth) {
		t.Fatal("net zone misses net area")
	}
	if net(80, g.NearBaseY) {
		t.Fatal("net zone includes baseline")
	}
	nb, _ := g.zone("nearbase")
	if !nb(80, g.NearBaseY-4) {
		t.Fatal("nearbase zone misses baseline")
	}
	for _, name := range []string{"court", "netzone", "nearbase", "farbase", "nearhalf", "farhalf"} {
		if _, ok := g.zone(name); !ok {
			t.Errorf("declared zone %s unknown", name)
		}
	}
	if _, ok := g.zone("nope"); ok {
		t.Fatal("unknown zone accepted")
	}
}

// synthetic series helpers

func baselineStates(g Geometry, n int, speedAmp float64) []State {
	out := make([]State, n)
	for i := range out {
		x := 80 + 30*math.Sin(2*math.Pi*float64(i)/40)
		vx := speedAmp * math.Cos(2*math.Pi*float64(i)/40)
		out[i] = State{Found: true, X: x, Y: g.NearBaseY - 4, VX: vx, Area: 100}
	}
	return out
}

func TestDetectRally(t *testing.T) {
	g := geom()
	e, err := NewEngine(TennisRules(), g)
	if err != nil {
		t.Fatal(err)
	}
	series := Series{"near": baselineStates(g, 60, 4)}
	dets := e.Detect(series, 60)
	var rally *Detection
	for i := range dets {
		if dets[i].Kind == "rally" {
			rally = &dets[i]
		}
		if dets[i].Kind == "net-play" {
			t.Fatalf("spurious net-play: %+v", dets[i])
		}
	}
	if rally == nil {
		t.Fatal("rally not detected")
	}
	if rally.Start > 3 || rally.End < 57 {
		t.Fatalf("rally interval [%d,%d), want ~[0,60)", rally.Start, rally.End)
	}
	if rally.Confidence < 0.8 {
		t.Fatalf("rally confidence %.2f", rally.Confidence)
	}
}

func TestDetectNetPlay(t *testing.T) {
	g := geom()
	e, _ := NewEngine(TennisRules(), g)
	states := make([]State, 50)
	for i := range states {
		y := g.NearBaseY - 4
		if i >= 25 {
			y = g.NetY + 5
		}
		states[i] = State{Found: true, X: 80, Y: y, VX: 2, Area: 100}
	}
	dets := e.Detect(Series{"near": states}, 50)
	found := false
	for _, d := range dets {
		if d.Kind == "net-play" && d.Start >= 24 && d.End == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("net-play not detected: %+v", dets)
	}
}

func TestDetectServiceStance(t *testing.T) {
	g := geom()
	e, _ := NewEngine(TennisRules(), g)
	states := make([]State, 40)
	for i := range states {
		vx := 0.1
		if i >= 20 {
			vx = 3.0
		}
		states[i] = State{Found: true, X: 60, Y: g.NearBaseY - 2, VX: vx, Area: 100}
	}
	dets := e.Detect(Series{"near": states}, 40)
	var service, rally bool
	for _, d := range dets {
		if d.Kind == "service" && d.Start <= 2 && d.End >= 16 {
			service = true
		}
		if d.Kind == "rally" && d.Start >= 16 {
			rally = true
		}
	}
	if !service {
		t.Fatalf("service stance not detected: %+v", dets)
	}
	if !rally {
		t.Fatalf("post-serve rally not detected: %+v", dets)
	}
}

func TestGapMerging(t *testing.T) {
	g := geom()
	rs := MustParse("event z when in(near, netzone) for 20")
	e, _ := NewEngine(rs, g)
	states := make([]State, 40)
	v := make([]verdict, 40)
	for i := range states {
		states[i], v[i] = State{Found: true, X: 80, Y: g.NetY}, holds
		// Tracking glitches: 2-frame excursions out of the zone every 10
		// frames.
		if i%10 == 4 || i%10 == 5 {
			states[i].Y, v[i] = g.NearBaseY, fails
		}
	}
	dets := e.Detect(Series{"near": states}, 40)
	if len(dets) != 1 {
		t.Fatalf("gap merging failed: %+v", dets)
	}
	if dets[0].Confidence >= 1 || dets[0].Confidence < 0.7 {
		t.Fatalf("confidence %.2f should reflect gaps", dets[0].Confidence)
	}
	// With maxGap 0 the runs are too short to fire.
	if dets := runsToDetections(rs[0], v, 0); len(dets) != 0 {
		t.Fatalf("maxGap=0 still detected: %+v", dets)
	}

	// A run of frames where the object is not found, longer than any gap,
	// is unknown: the event runs across it at full confidence, no event
	// starts at its edge, and the event ends on the last frame it held.
	for i := range states {
		states[i] = State{Found: i < 10 || i >= 26 && i < 36, X: 80, Y: g.NetY}
	}
	dets = e.Detect(Series{"near": states}, 40)
	if len(dets) != 1 || dets[0].Start != 0 || dets[0].End != 36 || dets[0].Confidence != 1 {
		t.Fatalf("an unknown run inside the event: %+v, want one event [0,36) at confidence 1", dets)
	}
}

func TestMinLenFilters(t *testing.T) {
	g := geom()
	e, _ := NewEngine(MustParse("event z when in(near, netzone) for 30"), g)
	states := make([]State, 40)
	for i := range states {
		y := g.NearBaseY
		if i >= 20 {
			y = g.NetY
		}
		states[i] = State{Found: true, X: 80, Y: y}
	}
	if dets := e.Detect(Series{"near": states}, 40); len(dets) != 0 {
		t.Fatalf("short run fired: %+v", dets)
	}
}

func TestMissingObjectNeverHolds(t *testing.T) {
	g := geom()
	e, _ := NewEngine(TennisRules(), g)
	if dets := e.Detect(Series{}, 50); len(dets) != 0 {
		t.Fatalf("detections without objects: %+v", dets)
	}
}

func TestRuleString(t *testing.T) {
	rs := MustParse("event z when speed(near) >= 1.5 and in(near, nearbase) for 7")
	got := rs[0].String()
	if !strings.Contains(got, "event z when") || !strings.Contains(got, "for 7") {
		t.Fatalf("String = %q", got)
	}
	// Round-trip: the rendered form re-parses to the same structure.
	back, err := Parse(got)
	if err != nil {
		t.Fatalf("re-parse %q: %v", got, err)
	}
	if back[0].Kind != "z" || back[0].MinLen != 7 {
		t.Fatalf("round trip = %+v", back[0])
	}
}
