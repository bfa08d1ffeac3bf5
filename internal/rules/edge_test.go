package rules

import (
	"testing"
)

func TestSpeedSmoothingWindow(t *testing.T) {
	// A single-frame velocity spike must be attenuated by the smoothing
	// window so it cannot fake a rally.
	states := make([]State, 21)
	for i := range states {
		states[i] = State{Found: true, X: 50, Y: 50}
	}
	states[10].VX = 10 // one-frame tracking glitch
	speeds := smoothSpeeds(Series{"near": states}, 5)["near"]
	if speeds[10] >= 10 {
		t.Fatalf("spike not smoothed: %v", speeds[10])
	}
	if speeds[10] < 1.5 || speeds[10] > 2.5 {
		t.Fatalf("smoothed spike = %v, want ~10/5", speeds[10])
	}
	if speeds[0] != 0 || speeds[20] != 0 {
		t.Fatal("smoothing leaked beyond window")
	}
}

func TestSmoothSpeedsWindowOne(t *testing.T) {
	states := []State{{Found: true, VX: 3, VY: 4}}
	speeds := smoothSpeeds(Series{"o": states}, 1)
	if speeds["o"][0] != 5 {
		t.Fatalf("speed = %v, want 5", speeds["o"][0])
	}
}

func TestDetectZeroLength(t *testing.T) {
	e, _ := NewEngine(TennisRules(), geom())
	if dets := e.Detect(Series{"near": nil}, 0); len(dets) != 0 {
		t.Fatalf("zero-length detections: %v", dets)
	}
}

func TestRunsAtSeriesEnd(t *testing.T) {
	// A run that extends to the final frame must be emitted even though no
	// "condition drops" frame follows.
	g := geom()
	e, _ := NewEngine(MustParse("event z when in(near, netzone) for 5"), g)
	states := make([]State, 10)
	for i := range states {
		y := g.NearBaseY
		if i >= 4 {
			y = g.NetY
		}
		states[i] = State{Found: true, X: 80, Y: y}
	}
	dets := e.Detect(Series{"near": states}, 10)
	if len(dets) != 1 || dets[0].Start != 4 || dets[0].End != 10 {
		t.Fatalf("dets = %+v", dets)
	}
}

func TestNotAndParenthesized(t *testing.T) {
	g := geom()
	e, _ := NewEngine(MustParse("event away when not (in(near, netzone) or in(near, nearbase)) for 3"), g)
	states := make([]State, 6)
	for i := range states {
		states[i] = State{Found: true, X: 80, Y: (g.NetY + g.NearBaseY) / 2}
	}
	dets := e.Detect(Series{"near": states}, 6)
	if len(dets) != 1 {
		t.Fatalf("negated zone rule: %+v", dets)
	}
	// Negation still requires the object to exist: a vanished object must
	// not satisfy "not in(...)".
	for i := range states {
		states[i].Found = false
	}
	if dets := e.Detect(Series{"near": states}, 6); len(dets) != 0 {
		t.Fatalf("unfound object satisfied negation: %+v", dets)
	}
}

func TestMultiObjectRule(t *testing.T) {
	g := geom()
	// Both players at their baselines simultaneously.
	e, err := NewEngine(MustParse(
		"event both-back when in(near, nearbase) and in(far, farbase) for 4"), g)
	if err != nil {
		t.Fatal(err)
	}
	near := make([]State, 10)
	far := make([]State, 10)
	for i := range near {
		near[i] = State{Found: true, X: 80, Y: g.NearBaseY}
		far[i] = State{Found: true, X: 80, Y: g.FarBaseY}
	}
	// Far player leaves the baseline halfway.
	for i := 5; i < 10; i++ {
		far[i].Y = g.NetY
	}
	dets := e.Detect(Series{"near": near, "far": far}, 10)
	if len(dets) != 1 || dets[0].End > 5+4 {
		t.Fatalf("dets = %+v", dets)
	}
	if dets[0].Object != "far" {
		// Deterministic primary object: lexicographically first.
		t.Fatalf("actor = %q, want far", dets[0].Object)
	}
}
