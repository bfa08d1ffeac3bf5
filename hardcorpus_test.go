package repro

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/rules"
	"repro/internal/shotdet"
	"repro/internal/synth"
)

// The hard corpus is the detectors' fixture of difficulties that synth does
// not render: synth cuts hard between shots of a fixed camera, so every
// boundary rule finds every cut. Each video here is a seeded synth broadcast
// post-processed into one difficulty, with its truth carried through: the
// frames a transition spans, each shot's pure frames and class, and a
// tennis shot's player positions and events as the camera shows them.

// hardColumns are the difficulties in ledger order: one column of the hard
// family each.
var hardColumns = []string{
	"cuts", "dissolve 6", "dissolve 12", "dissolve 20", "fade 12", "wipe 10", "wipe 20",
	"pan", "zoom", "duplicates", "occlusion", "exit", "150x110", "vote tie",
	"vote tie, backdrop first",
}

// hardTracked are the columns whose tennis shots also score the tracker and
// the event rules: the camera difficulties, the frame size and the plain
// cuts they compare against.
var hardTracked = []string{"cuts", "pan", "zoom", "occlusion", "exit", "150x110"}

// A transition is the truth of one boundary: the frames [start, end) that
// belong to neither shot. A hard cut spans none; start is the new shot's
// first frame.
type transition struct{ start, end int }

// matches reports whether a boundary detected at frame x falls on the
// transition, within tol frames of its span.
func (tr transition) matches(x, tol int) bool {
	return tr.start-tol <= x && x <= max(tr.end-1, tr.start)+tol
}

// matchTransitions scores detected boundaries against the transitions: a
// detection matches the first unmatched transition it falls on, so a
// transition matches at most once and a second detection inside it is a
// false positive.
func matchTransitions(detected []int, truth []transition, tol int) eval.PR {
	used := make([]bool, len(truth))
	var pr eval.PR
	for _, x := range detected {
		for i, tr := range truth {
			if !used[i] && tr.matches(x, tol) {
				used[i] = true
				pr.TP++
				break
			}
		}
	}
	pr.FP, pr.FN = len(detected)-pr.TP, len(truth)-pr.TP
	return pr
}

// A hardVideo is one video of the corpus. shots hold each shot's pure
// frames [Start, End); a tennis shot's player truth is per frame of that
// range, and events are absolute frame intervals.
type hardVideo struct {
	frames []*frame.Image
	trans  []transition
	shots  []synth.ShotTruth
	events []synth.EventTruth
}

var (
	hardOnce sync.Once
	hard     map[string][]hardVideo
	hardErr  error
)

// hardCorpus renders the corpus once: every column but two derives from
// one eight-shot broadcast of 48–64-frame shots, sharing its unaltered
// frames.
func hardCorpus(tb testing.TB) map[string][]hardVideo {
	tb.Helper()
	hardOnce.Do(func() { hard, hardErr = renderHardCorpus() })
	if hardErr != nil {
		tb.Fatal(hardErr)
	}
	return hard
}

func renderHardCorpus() (map[string][]hardVideo, error) {
	cfg := synth.DefaultConfig(9100)
	cfg.Shots, cfg.MinShotLen, cfg.MaxShotLen = 8, 48, 64
	base, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	small := cfg
	small.W, small.H, small.Seed = 150, 110, 9101
	odd, err := synth.Generate(small)
	if err != nil {
		return nil, err
	}
	c := map[string][]hardVideo{}
	for _, col := range hardColumns {
		if !strings.HasPrefix(col, "vote tie") {
			c[col] = []hardVideo{derive(col, base, odd)}
		}
	}
	for i, backdrop := range []frame.RGB{{R: 200, G: 40, B: 40}, {R: 20, G: 60, B: 200}} {
		for col, first := range map[string]bool{"vote tie": false, "vote tie, backdrop first": true} {
			v, err := voteTie(9102+int64(i), backdrop, first)
			if err != nil {
				return nil, err
			}
			c[col] = append(c[col], v)
		}
	}
	return c, nil
}

// derive is column col of one broadcast: base post-processed into the
// difficulty, or small, the broadcast at 150×110, for the frame-size column.
// The vote-tie columns are their own videos, not derived.
func derive(col string, base, small *synth.Video) hardVideo {
	switch col {
	case "dissolve 6":
		return joined(base, 6, dissolve)
	case "dissolve 12":
		return joined(base, 12, dissolve)
	case "dissolve 20":
		return joined(base, 20, dissolve)
	case "fade 12":
		return joined(base, 12, fade)
	case "wipe 10":
		return joined(base, 10, wipe)
	case "wipe 20":
		return joined(base, 20, wipe)
	case "pan":
		return filmed(base, pan)
	case "zoom":
		return filmed(base, zoom)
	case "duplicates":
		return duplicated(base, 8)
	case "occlusion":
		return occluded(base)
	case "exit":
		return filmed(base, exit)
	case "150x110":
		return joined(small, 0, nil)
	}
	return joined(base, 0, nil) // cuts
}

// joined is v with each cut replaced by an n-frame transition that mixes
// the last n frames of the outgoing shot with the first n of the incoming
// one (the video loses n frames per transition); n = 0 keeps the cuts.
func joined(v *synth.Video, n int, mix func(a, b *frame.Image, k, n int) *frame.Image) hardVideo {
	var h hardVideo
	for i, s := range v.Truth.Shots {
		frames := v.Frames[s.Start:s.End]
		if i > 0 {
			tail := h.frames[len(h.frames)-n:]
			for k := range tail {
				tail[k] = mix(tail[k], frames[k], k, n)
			}
			h.trans = append(h.trans, transition{len(h.frames) - n, len(h.frames)})
			frames = frames[n:]
		}
		h.frames = append(h.frames, frames...)
	}
	// Each shot's pure frames lie between the transitions around it. Its
	// first n frames went into the incoming transition, so its frame j is
	// at start-n+j: the player truth skips n positions, and the events
	// shift with the frames.
	for i, s := range v.Truth.Shots {
		start, end, skip := 0, len(h.frames), 0
		if i > 0 {
			start, skip = h.trans[i-1].end, n
		}
		if i < len(h.trans) {
			end = h.trans[i].start
		}
		shift := start - skip - s.Start
		t := s
		t.Start, t.End = start, end
		if s.NearPlayer != nil {
			t.NearPlayer, t.FarPlayer = s.NearPlayer[skip:skip+end-start], s.FarPlayer[skip:skip+end-start]
		}
		h.shots = append(h.shots, t)
		for _, e := range v.Truth.Events {
			if e.Shot == i {
				e.Start, e.End = e.Start+shift, e.End+shift
				h.events = append(h.events, e)
			}
		}
	}
	return h
}

// blend is a per-byte mix of a and b at weight w of b.
func blend(a, b *frame.Image, w float64) *frame.Image {
	out := frame.New(a.W, a.H)
	for i := range out.Pix {
		out.Pix[i] = uint8(math.Round((1-w)*float64(a.Pix[i]) + w*float64(b.Pix[i])))
	}
	return out
}

// dissolve cross-fades linearly: frame k of n holds (k+1)/(n+1) of b.
func dissolve(a, b *frame.Image, k, n int) *frame.Image {
	return blend(a, b, float64(k+1)/float64(n+1))
}

// fade goes through black: the first half of the n frames dims a to black,
// the second brings b up from it.
func fade(a, b *frame.Image, k, n int) *frame.Image {
	half := n / 2
	black := frame.New(a.W, a.H)
	if k < half {
		return blend(a, black, float64(k+1)/float64(half))
	}
	return blend(black, b, float64(k-half+1)/float64(n-half))
}

// wipe sweeps b in from the left: frame k of n shows b left of column
// W(k+1)/(n+1).
func wipe(a, b *frame.Image, k, n int) *frame.Image {
	out := a.Clone()
	x1 := a.W * (k + 1) / (n + 1)
	for y := 0; y < a.H; y++ {
		row := a.Offset(0, y)
		copy(out.Pix[row:row+3*x1], b.Pix[row:row+3*x1])
	}
	return out
}

// A camera re-films a tennis shot of n frames: frame t shows at pixel (x, y)
// the scene point back(t, n, x, y), and a player standing at p appears at
// fwd(t, n, p). back moves x and y independently: the scene x it gives does
// not depend on y, nor the scene y on x.
type camera struct {
	back func(t, n int, x, y float64) (float64, float64)
	fwd  func(t, n int, p synth.Point) synth.Point
}

// pan swings the camera ±10 px left and right, once every 48 frames.
var pan = camera{
	back: func(t, _ int, x, y float64) (float64, float64) { return x - panDX(t), y },
	fwd:  func(t, _ int, p synth.Point) synth.Point { return synth.Point{X: p.X + panDX(t), Y: p.Y} },
}

func panDX(t int) float64 { return math.Round(10 * math.Sin(2*math.Pi*float64(t)/48)) }

// zoom closes in on the frame centre, from 1× to 1.25× over the shot.
var zoom = camera{
	back: func(t, n int, x, y float64) (float64, float64) {
		s, cx, cy := zoomAt(t, n)
		return cx + (x-cx)/s, cy + (y-cy)/s
	},
	fwd: func(t, n int, p synth.Point) synth.Point {
		s, cx, cy := zoomAt(t, n)
		return synth.Point{X: cx + (p.X-cx)*s, Y: cy + (p.Y-cy)*s}
	},
}

// zoomAt is the zoom's scale at frame t of n and its centre, which the
// default 160×120 frame fixes.
func zoomAt(t, n int) (s, cx, cy float64) { return 1 + 0.25*float64(t)/float64(n-1), 80, 60 }

// exit tilts the camera up by 32 px over the shot's first third, holds it
// through the second and comes back in the last, so the near player leaves
// the bottom of the frame for the middle third.
var exit = camera{
	back: func(t, n int, x, y float64) (float64, float64) { return x, y - exitDY(t, n) },
	fwd:  func(t, n int, p synth.Point) synth.Point { return synth.Point{X: p.X, Y: p.Y + exitDY(t, n)} },
}

func exitDY(t, n int) float64 {
	third := float64(n) / 3
	ramp := min(float64(t)/third, 1, (float64(n-1)-float64(t))/third)
	return math.Round(32 * max(ramp, 0))
}

// filmed is v with every tennis shot re-filmed by cam: each pixel takes the
// nearest source pixel, clamped into the frame.
func filmed(v *synth.Video, cam camera) hardVideo {
	h := joined(v, 0, nil)
	for si, s := range h.shots {
		if s.Class != synth.ClassTennis {
			continue
		}
		n := s.Len()
		near, far := make([]synth.Point, n), make([]synth.Point, n)
		for t := 0; t < n; t++ {
			src := h.frames[s.Start+t]
			out := frame.New(src.W, src.H)
			// The source column of each x and the source row of each y.
			ix, iy := make([]int, src.W), make([]int, src.H)
			for x := range ix {
				sx, _ := cam.back(t, n, float64(x)+0.5, 0.5)
				ix[x] = min(max(int(math.Floor(sx)), 0), src.W-1)
			}
			for y := range iy {
				_, sy := cam.back(t, n, 0.5, float64(y)+0.5)
				iy[y] = min(max(int(math.Floor(sy)), 0), src.H-1)
			}
			for y := 0; y < src.H; y++ {
				for x := 0; x < src.W; x++ {
					copy(out.Pix[out.Offset(x, y):out.Offset(x, y)+3], src.Pix[src.Offset(ix[x], iy[y]):src.Offset(ix[x], iy[y])+3])
				}
			}
			h.frames[s.Start+t] = out
			near[t], far[t] = cam.fwd(t, n, s.NearPlayer[t]), cam.fwd(t, n, s.FarPlayer[t])
		}
		h.shots[si].NearPlayer, h.shots[si].FarPlayer = near, far
	}
	return h
}

// duplicated is v with a run of k copies of one frame in the middle of
// every shot, as a stalled decoder or a freeze-frame replay leaves them.
// The player truth freezes with the picture.
func duplicated(v *synth.Video, k int) hardVideo {
	h := joined(v, 0, nil)
	for si, s := range h.shots {
		mid := s.Len() / 2
		for t := mid + 1; t < mid+k; t++ {
			h.frames[s.Start+t] = h.frames[s.Start+mid]
		}
		if s.NearPlayer != nil {
			near := append([]synth.Point(nil), s.NearPlayer...)
			far := append([]synth.Point(nil), s.FarPlayer...)
			for t := mid + 1; t < mid+k; t++ {
				near[t], far[t] = near[mid], far[mid]
			}
			h.shots[si].NearPlayer, h.shots[si].FarPlayer = near, far
		}
	}
	return h
}

// occluded is v with a dark 16×32 box over the near player through the
// middle third of every tennis shot, as an umpire or a camera operator
// walking past would cover them.
func occluded(v *synth.Video) hardVideo {
	h := joined(v, 0, nil)
	for _, s := range h.shots {
		if s.Class != synth.ClassTennis {
			continue
		}
		n := s.Len()
		for t := n / 3; t < 2*n/3; t++ {
			p := s.NearPlayer[t]
			im := h.frames[s.Start+t].Clone()
			im.FillRect(frame.Rect{X0: int(p.X) - 8, Y0: int(p.Y) - 17, X1: int(p.X) + 8, Y1: int(p.Y) + 15}, frame.RGB{R: 60, G: 60, B: 70})
			h.frames[s.Start+t] = im
		}
	}
	return h
}

// voteTie is a 32-frame rally and 32 frames of a flat saturated backdrop,
// the backdrop first when backdropFirst is set. At 64 frames every second
// frame votes on the court colour, so each shot casts 16 ballots and the
// vote ties between the court's colour cell and the backdrop's: the
// tie-break decides the court colour.
func voteTie(seed int64, backdrop frame.RGB, backdropFirst bool) (hardVideo, error) {
	cfg := synth.DefaultConfig(seed)
	rally, near, far, events, err := synth.RenderTennisShot(cfg, "rally", 32)
	if err != nil {
		return hardVideo{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	var flat []*frame.Image
	for range 32 {
		im := frame.New(cfg.W, cfg.H)
		im.Fill(backdrop)
		im.AddNoise(rng, cfg.Noise)
		flat = append(flat, im)
	}
	tennis := synth.ShotTruth{Start: 0, End: 32, Class: synth.ClassTennis, Script: "rally", NearPlayer: near, FarPlayer: far}
	other := synth.ShotTruth{Start: 32, End: 64, Class: synth.ClassOther}
	if !backdropFirst {
		return hardVideo{frames: append(rally, flat...), trans: []transition{{32, 32}}, shots: []synth.ShotTruth{tennis, other}, events: events}, nil
	}
	tennis.Start, tennis.End, other.Start, other.End = 32, 64, 0, 32
	for i := range events {
		events[i].Shot, events[i].Start, events[i].End = 1, events[i].Start+32, events[i].End+32
	}
	return hardVideo{frames: append(flat, rally...), trans: []transition{{32, 32}}, shots: []synth.ShotTruth{other, tennis}, events: events}, nil
}

// ------------------------------------------------------------ the family

// hardRows scores the shipped detectors column by column: the segment
// detector's boundaries (Sweeper.Detect at the shipped threshold,
// which must start the shots SegmentAndClassify finds) against the
// transitions at ±2 frames, and its shot classes under the court-colour
// vote, as shippedRows does on the hard cuts; then, on hardTracked, the
// tracker's error over every tennis shot (as E4) and the event rules'
// detections by interval IoU >= 0.5 (as E5).
func hardRows(t *testing.T) []ledgerRow {
	hc := hardCorpus(t)
	var sweep shotdet.Sweeper
	var rows []ledgerRow
	for _, col := range hardColumns {
		var pr eval.PR
		conf := eval.NewConfusion(shotLabels...)
		for _, v := range hc[col] {
			bounds := sweep.Detect(v.frames, shotdet.Threshold)
			shots, err := shotdet.SegmentAndClassify(frame.Frames(v.frames))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(starts(shots), bounds) {
				t.Fatalf("%s: SegmentAndClassify starts shots at %v, Detect finds boundaries %v", col, starts(shots), bounds)
			}
			pr.Add(matchTransitions(bounds, v.trans, 2))
			observeShots(t, conf, shots, v.shots)
		}
		rows = append(rows, prRows("hard", "boundary in transition ±2", col, pr)...)
		rows = append(rows, score("hard", "shot class, court voted", col, "accuracy", conf.Accuracy()))
	}
	for _, col := range hardTracked {
		rows = append(rows, trackedRows(t, col, hc[col])...)
	}
	return rows
}

// starts are the detected boundaries of shots: every shot's first frame but
// the first's.
func starts(shots []shotdet.Shot) []int {
	var out []int
	for _, s := range shots[1:] {
		out = append(out, s.Start)
	}
	return out
}

// observeShots classifies each true shot as the detected shot over its
// middle frame does.
func observeShots(t *testing.T, conf *eval.Confusion, detected []shotdet.Shot, truth []synth.ShotTruth) {
	t.Helper()
	for _, s := range truth {
		mid := (s.Start + s.End) / 2
		for _, d := range detected {
			if d.Start <= mid && mid < d.End {
				observe(t, conf, s.Class.String(), d.Class.String())
			}
		}
	}
}

// trackedRows is the tracker's mean position error per player (averaged
// over the column's tennis shots) and its lost share, and the rules' event
// P/R/F1 over all three kinds, on the ground-truth tennis shots of vids.
func trackedRows(t *testing.T, col string, vids []hardVideo) []ledgerRow {
	var nearErr, farErr float64
	var shots, lost, frames int
	var events eval.PR
	for _, v := range vids {
		eng, err := rules.NewEngine(rules.TennisRules(), rules.StandardGeometry(v.frames[0].W, v.frames[0].H))
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range v.shots {
			if s.Class != synth.ClassTennis {
				continue
			}
			res := trackFrames(v.frames[s.Start:s.End])
			nearErr += meanTrackError(res.Near, s.NearPlayer)
			farErr += meanTrackError(res.Far, s.FarPlayer)
			shots++
			lost += res.Near.LostFrames + res.Far.LostFrames
			frames += 2 * s.Len()
			var dIv, tIv []eval.Interval
			for _, d := range eng.Detect(fde.TrackToSeries(res), s.Len()) {
				dIv = append(dIv, eval.Interval{Start: d.Start, End: d.End, Label: d.Kind})
			}
			for _, e := range v.events {
				if e.Shot == si {
					tIv = append(tIv, eval.Interval{Start: e.Start - s.Start, End: e.End - s.Start, Label: string(e.Kind)})
				}
			}
			events.Add(eval.MatchIntervals(dIv, tIv, 0.5))
		}
	}
	if shots == 0 {
		t.Fatalf("column %s has no tennis shot", col)
	}
	return append([]ledgerRow{
		errorRow("hard", "tracker", col, "near px", nearErr/float64(shots)),
		errorRow("hard", "tracker", col, "far px", farErr/float64(shots)),
		errorRow("hard", "tracker", col, "lost %", 100*float64(lost)/float64(frames)),
	}, prRows("hard", "events iou >= 0.5", col, events)...)
}

// TestHardCorpusTruth checks the fixture against itself: every column has
// its frames and a transition per boundary, the shots tile the frames the
// transitions leave, each tennis shot carries a player position per frame,
// and the events the tracked columns score lie inside their shots.
func TestHardCorpusTruth(t *testing.T) {
	hc := hardCorpus(t)
	for _, col := range hardColumns {
		vids := hc[col]
		if len(vids) == 0 {
			t.Fatalf("column %s is empty", col)
		}
		for vi, v := range vids {
			if len(v.trans) != len(v.shots)-1 {
				t.Fatalf("%s/%d: %d transitions between %d shots", col, vi, len(v.trans), len(v.shots))
			}
			pos := 0
			for i, s := range v.shots {
				if i > 0 {
					pos = v.trans[i-1].end
				}
				if s.Start != pos || s.End <= s.Start {
					t.Fatalf("%s/%d: shot %d is [%d,%d), want it to start at %d", col, vi, i, s.Start, s.End, pos)
				}
				if i < len(v.trans) && v.trans[i].start != s.End {
					t.Fatalf("%s/%d: transition %d starts at %d, shot ends at %d", col, vi, i, v.trans[i].start, s.End)
				}
				if s.Class == synth.ClassTennis && (len(s.NearPlayer) != s.Len() || len(s.FarPlayer) != s.Len()) {
					t.Fatalf("%s/%d: tennis shot %d has %d/%d positions for %d frames", col, vi, i, len(s.NearPlayer), len(s.FarPlayer), s.Len())
				}
				pos = s.End
			}
			if pos != len(v.frames) {
				t.Fatalf("%s/%d: shots end at %d of %d frames", col, vi, pos, len(v.frames))
			}
		}
	}
	for _, col := range hardTracked {
		for vi, v := range hc[col] {
			for _, e := range v.events {
				if s := v.shots[e.Shot]; e.Start < s.Start || e.End > s.End {
					t.Fatalf("%s/%d: event %+v outside its shot [%d,%d)", col, vi, e, s.Start, s.End)
				}
			}
		}
	}
	if got := fmt.Sprint(matchTransitions([]int{8, 10, 30, 41}, []transition{{10, 10}, {30, 40}}, 2)); got != "{2 2 0}" {
		t.Fatalf("matchTransitions = %s, want one match per transition: {2 2 0}", got)
	}
}

// TestVoteTieIngestDeterministic indexes the vote-tie columns, a dissolve
// and the fade through the production pipeline (SVF files, IndexBatch) at 1
// and 4 workers, under GOMAXPROCS 1 and 4: every run must save the same
// index bytes: the court-colour vote counts its ballots in frame order, not
// by timing or map iteration, and a transition run's state is carried in
// frame order across the boundary pass's batches, whatever its workers.
func TestVoteTieIngestDeterministic(t *testing.T) {
	dir := t.TempDir()
	var jobs []IngestJob
	for _, col := range []string{"vote tie", "vote tie, backdrop first", "dissolve 12", "fade 12"} {
		for i, v := range hardCorpus(t)[col] {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.svf", strings.ReplaceAll(col, " ", "_"), i))
			if err := WriteSVF(path, v.frames, 25); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, IngestJob{Path: path})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4} {
			lib, err := NewLibrary()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lib.IndexBatch(context.Background(), jobs, BatchOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := lib.SaveIndex(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("GOMAXPROCS %d, %d workers: SaveIndex gave %d bytes that differ from the first run's %d", procs, workers, buf.Len(), len(want))
			}
		}
	}
}
