package synth

import (
	"slices"
	"testing"

	"repro/internal/frame"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Shots = 5
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if !slices.Equal(a.Frames[i].Pix, b.Frames[i].Pix) {
			t.Fatalf("frame %d differs between identical seeds", i)
		}
	}
	if len(a.Truth.Shots) != len(b.Truth.Shots) {
		t.Fatal("shot truth differs between identical seeds")
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Shots = 4
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	same := len(a.Frames) == len(b.Frames)
	if same {
		allEq := true
		for i := range a.Frames {
			if !slices.Equal(a.Frames[i].Pix, b.Frames[i].Pix) {
				allEq = false
				break
			}
		}
		if allEq {
			t.Fatal("different seeds produced identical videos")
		}
	}
}

func TestShotTruthConsistency(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Shots = 10
	v, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Truth.Shots) != 10 {
		t.Fatalf("got %d shots, want 10", len(v.Truth.Shots))
	}
	pos := 0
	for i, s := range v.Truth.Shots {
		if s.Start != pos {
			t.Fatalf("shot %d starts at %d, want %d (contiguous)", i, s.Start, pos)
		}
		if s.Len() < cfg.MinShotLen || s.Len() > cfg.MaxShotLen {
			t.Fatalf("shot %d length %d outside [%d,%d]", i, s.Len(), cfg.MinShotLen, cfg.MaxShotLen)
		}
		if s.Class == ClassTennis {
			if len(s.NearPlayer) != s.Len() || len(s.FarPlayer) != s.Len() {
				t.Fatalf("tennis shot %d trajectory length mismatch", i)
			}
			if s.Script == "" {
				t.Fatalf("tennis shot %d missing script name", i)
			}
		} else if s.NearPlayer != nil {
			t.Fatalf("non-tennis shot %d has trajectories", i)
		}
		pos = s.End
	}
	if pos != len(v.Frames) {
		t.Fatalf("shots cover %d frames, video has %d", pos, len(v.Frames))
	}
	if v.Truth.Shots[0].Class != ClassTennis {
		t.Fatal("first shot should be tennis")
	}
}

func TestEventsWithinShots(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Shots = 12
	v, _ := Generate(cfg)
	if len(v.Truth.Events) == 0 {
		t.Fatal("no events generated")
	}
	for _, e := range v.Truth.Events {
		s := v.Truth.Shots[e.Shot]
		if e.Start < s.Start || e.End > s.End || e.Start >= e.End {
			t.Fatalf("event %+v escapes its shot %+v", e, s)
		}
		if s.Class != ClassTennis {
			t.Fatalf("event %+v in non-tennis shot", e)
		}
	}
}

func TestBoundariesAndShotAt(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Shots = 4
	v, _ := Generate(cfg)
	b := v.Truth.Boundaries()
	if len(b) != 3 {
		t.Fatalf("got %d boundaries, want 3", len(b))
	}
	for i, f := range b {
		if v.Truth.Shots[i+1].Start != f {
			t.Fatalf("boundary %d does not start shot %d", f, i+1)
		}
	}
}

func TestClassFeatureSeparation(t *testing.T) {
	// The generated classes must be separable by the paper's features:
	// dominant court colour (tennis), skin ratio (close-up),
	// entropy (audience).
	cfg := DefaultConfig(5)
	cfg.Shots = 16
	v, _ := Generate(cfg)
	seen := map[ShotClass]bool{}
	for _, s := range v.Truth.Shots {
		mid := v.Frames[(s.Start+s.End)/2]
		h := frame.HistogramOf(mid, 8)
		peak, share := h.Peak()
		skinN := 0
		for i := 0; i+2 < len(mid.Pix); i += 3 {
			if frame.IsSkin(frame.RGB{R: mid.Pix[i], G: mid.Pix[i+1], B: mid.Pix[i+2]}) {
				skinN++
			}
		}
		skin := float64(skinN) / float64(mid.W*mid.H)
		ent := h.Entropy()
		seen[s.Class] = true
		switch s.Class {
		case ClassTennis:
			if h.Index(peak) != h.Index(CourtColor) || share < 0.3 {
				t.Errorf("tennis shot %d: peak %v share %.2f, want court-dominant", s.Start, peak, share)
			}
		case ClassCloseUp:
			if skin < 0.12 {
				t.Errorf("close-up shot %d: skin ratio %.3f too low", s.Start, skin)
			}
		case ClassAudience:
			if ent < 6 {
				t.Errorf("audience shot %d: entropy %.2f too low", s.Start, ent)
			}
		case ClassOther:
			if skin > 0.1 {
				t.Errorf("other shot %d: skin ratio %.3f too high", s.Start, skin)
			}
			if h.Index(peak) == h.Index(CourtColor) && share > 0.3 {
				t.Errorf("other shot %d looks like court", s.Start)
			}
		}
	}
	for _, c := range []ShotClass{ClassTennis, ClassCloseUp} {
		if !seen[c] {
			t.Errorf("class %v never generated in 16 shots", c)
		}
	}
}

func TestCutsProduceHistogramJumps(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Shots = 8
	v, _ := Generate(cfg)
	// Histogram distance across each cut must exceed the typical
	// within-shot distance by a wide margin.
	var within, across []float64
	for i := 1; i < len(v.Frames); i++ {
		h1 := frame.HistogramOf(v.Frames[i-1], 8)
		h2 := frame.HistogramOf(v.Frames[i], 8)
		d := h1.L1Dist(h2)
		isCut := false
		for _, b := range v.Truth.Boundaries() {
			if i == b {
				isCut = true
				break
			}
		}
		if isCut {
			across = append(across, d)
		} else {
			within = append(within, d)
		}
	}
	maxWithin, minAcross := 0.0, 2.0
	for _, d := range within {
		if d > maxWithin {
			maxWithin = d
		}
	}
	for _, d := range across {
		if d < minAcross {
			minAcross = d
		}
	}
	if minAcross <= maxWithin {
		t.Fatalf("cut distances (min %.3f) overlap within-shot distances (max %.3f)", minAcross, maxWithin)
	}
}

func TestRenderTennisShotScripts(t *testing.T) {
	cfg := DefaultConfig(13)
	for _, name := range Scripts() {
		frames, near, far, events, err := RenderTennisShot(cfg, name, 50)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(frames) != 50 || len(near) != 50 || len(far) != 50 {
			t.Fatalf("%s: wrong lengths", name)
		}
		if len(events) == 0 {
			t.Fatalf("%s: no events", name)
		}
		g := CourtGeometry(cfg.W, cfg.H)
		for i, p := range near {
			if p.X < float64(g.Court.X0) || p.X > float64(g.Court.X1) {
				t.Fatalf("%s: near player x out of court at %d: %+v", name, i, p)
			}
		}
	}
	if _, _, _, _, err := RenderTennisShot(cfg, "moonball", 10); err == nil {
		t.Fatal("unknown script accepted")
	}
}

func TestNetApproachReachesNetZone(t *testing.T) {
	cfg := DefaultConfig(17)
	g := CourtGeometry(cfg.W, cfg.H)
	_, near, _, events, err := RenderTennisShot(cfg, "net-approach", 60)
	if err != nil {
		t.Fatal(err)
	}
	var netEv *EventTruth
	for i := range events {
		if events[i].Kind == EventNetPlay {
			netEv = &events[i]
		}
	}
	if netEv == nil {
		t.Fatal("net-approach script produced no net-play event")
	}
	for f := netEv.Start; f < netEv.End; f++ {
		dy := near[f].Y - float64(g.NetY)
		if dy > g.NetZoneDepth() {
			t.Fatalf("frame %d: player y=%.1f outside net zone (net %d, depth %.1f)",
				f, near[f].Y, g.NetY, g.NetZoneDepth())
		}
	}
}

func TestGenerateCorpus(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Shots = 3
	vids, err := GenerateCorpus(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 3 {
		t.Fatalf("corpus size %d", len(vids))
	}
	if slices.Equal(vids[0].Frames[0].Pix, vids[1].Frames[0].Pix) && slices.Equal(vids[1].Frames[0].Pix, vids[2].Frames[0].Pix) {
		t.Fatal("corpus videos identical; seeds not varied")
	}
	if _, err := GenerateCorpus(cfg, 0); err == nil {
		t.Fatal("zero-size corpus accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{W: 10, H: 10, Shots: 1, MinShotLen: 8, MaxShotLen: 9},
		{W: 100, H: 100, Shots: 0, MinShotLen: 8, MaxShotLen: 9},
		{W: 100, H: 100, Shots: 1, MinShotLen: 2, MaxShotLen: 9},
		{W: 100, H: 100, Shots: 1, MinShotLen: 10, MaxShotLen: 9},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
	if err := DefaultConfig(0).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestShotClassStringParse(t *testing.T) {
	for c, want := range map[ShotClass]string{
		ClassTennis: "tennis", ClassCloseUp: "close-up", ClassAudience: "audience", ClassOther: "other",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}
