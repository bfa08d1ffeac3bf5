package repro

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/eval"
	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/hmm"
	"repro/internal/ir"
	"repro/internal/rules"
	"repro/internal/shotdet"
	"repro/internal/synth"
	"repro/internal/track"
	"repro/internal/webspace"
)

// ledgerPath is the committed quality table TestQualityLedger checks.
const ledgerPath = "testdata/quality.tsv"

// ledgerHeader is the first line of the table.
const ledgerHeader = "experiment\tsubject\tcondition\tmetric\tvalue\tfloor\tdir"

// A ledgerRow is one score: an experiment's metric for one subject under
// one condition. dir is "min" for a score, whose floor is a lower bound,
// and "max" for an error, whose floor is a ceiling. prec is the number of
// decimals the table stores and the value is compared at.
type ledgerRow struct {
	exp, subject, cond, metric string
	value, floor               float64
	prec                       int
	dir                        string
}

func (r ledgerRow) key() string {
	return r.exp + "\t" + r.subject + "\t" + r.cond + "\t" + r.metric
}

func (r ledgerRow) format(v float64) string {
	return strconv.FormatFloat(v, 'f', r.prec, 64)
}

// rounded is the value at the precision the table stores it. Parsing the
// formatted value back gives the float that the same text in the file
// parses to, so a value equal to its floor compares equal on every GOARCH.
func (r ledgerRow) rounded() float64 {
	v, _ := strconv.ParseFloat(r.format(r.value), 64)
	return v
}

// holds reports whether v is within the floor (a ceiling for dir "max").
// NaN holds neither way.
func (r ledgerRow) holds(v float64) bool {
	if r.dir == "max" {
		return v <= r.floor
	}
	return v >= r.floor
}

// score is a "min" row at 3 decimals: a precision, recall, F1, accuracy or
// ranked-lane score.
func score(exp, subject, cond, metric string, v float64) ledgerRow {
	return ledgerRow{exp: exp, subject: subject, cond: cond, metric: metric, value: v, prec: 3, dir: "min"}
}

// errorRow is a "max" row at 2 decimals: E4's pixels and lost percentage.
func errorRow(exp, subject, cond, metric string, v float64) ledgerRow {
	return ledgerRow{exp: exp, subject: subject, cond: cond, metric: metric, value: v, prec: 2, dir: "max"}
}

// countRow is a "max" row at 0 decimals: E7's postings scored.
func countRow(exp, subject, cond, metric string, n int) ledgerRow {
	return ledgerRow{exp: exp, subject: subject, cond: cond, metric: metric, value: float64(n), dir: "max"}
}

func prRows(exp, subject, cond string, pr eval.PR) []ledgerRow {
	return []ledgerRow{
		score(exp, subject, cond, "P", pr.Precision()),
		score(exp, subject, cond, "R", pr.Recall()),
		score(exp, subject, cond, "F1", pr.F1()),
	}
}

// confusionRows is the accuracy row and each label's precision and recall.
func confusionRows(exp, subject string, c *eval.Confusion) []ledgerRow {
	rows := []ledgerRow{score(exp, subject, "all", "accuracy", c.Accuracy())}
	per := c.PerClass()
	for _, l := range c.Labels {
		rows = append(rows,
			score(exp, subject, l, "P", per[l].Precision()),
			score(exp, subject, l, "R", per[l].Recall()))
	}
	return rows
}

// observe records one classification and fails the family on a label the
// matrix does not know, so a dropped observation cannot pass as a score.
func observe(t *testing.T, c *eval.Confusion, truth, got string) {
	t.Helper()
	if !c.Observe(truth, got) {
		t.Fatalf("confusion over %v has no label for (%q, %q)", c.Labels, truth, got)
	}
}

// ledgerFamilies are the experiments the ledger recomputes, one parallel
// subtest each. The name is the experiment column of its rows.
var ledgerFamilies = []struct {
	name string
	rows func(t *testing.T) []ledgerRow
}{
	{"E2", e2Rows},
	{"E3", e3Rows},
	{"E4", e4Rows},
	{"E5", e5Rows},
	{"E6", e6Rows},
	{"E7", e7Rows},
	{"E8", e8Rows},
	{"E9", func(t *testing.T) []ledgerRow { return e9Rows(t) }},
	{"judged", judgedRows},
	{"shipped", shippedRows},
	{"hard", hardRows},
}

// TestQualityLedger recomputes every score of the paper's experiments
// (DESIGN.md §5: E2–E9, E9 being the motivating query judged from pixels
// under every tracked difficulty, motivating_test.go), of the shipped
// segment detector, of the shipped detectors on the hard corpus
// (hardcorpus_test.go) and of the ranked and content lanes on the judged
// query set from their seeded fixtures, and checks each
// against testdata/quality.tsv. It fails when a row falls below its floor
// (rises above its ceiling for an error), when a row of the table is not
// recomputed, and when a recomputed row is not in the table. On failure it
// prints the whole table with the recomputed values and their difference
// from the recorded ones, and the unlisted rows as TSV lines to paste in.
// There is no update flag: the table is edited by hand, under three rules.
//
//   - A floor may be raised, never lowered, unless a ROADMAP item allows it
//     and CHANGES.md names the row.
//   - A change that deletes a code path may remove that path's rows only
//     when a ROADMAP item allows it and CHANGES.md names the rows.
//   - TestIngestGolden's digest may be re-recorded when every detector row
//     (E2–E6, E9, shipped and hard) is equal or better than before the change.
//
// The judged family asks whether the vector and hybrid lanes rank better
// than keyword. Its queries are generated from each site, so nothing is
// labelled by hand: each is a fixed verbalisation of a structured query
// whose truth is W.Run's answer, in four classes — value-in-text (every
// country, handedness, sex and final category, in the words the pages
// print), structural (champions, finalists, year ranges over finals),
// paraphrase (demonyms and synonyms no page prints) and video event (the
// finals whose broadcast's script holds an event kind, a truth only the
// content join reaches, so this class also scores the content lane, `find
// Final scenes "<kind>" via video required`). It runs at 128 players over
// the E9 corpus's library (E8's site), at 1,024 players and on the ranked
// benchmarks' 8,192-player site, and scores each class per lane by mean
// P@10, recall@2n and nDCG@10 at depth max(10, 2n), with the class's query
// count. The lanes' keep-or-delete rule, fixed before any of it was
// measured, deletes them unless an embedder change makes hybrid's
// class-mean nDCG@10 beat keyword's by at least 0.05, on a strict majority
// of the class's queries, in one class at two of the three sizes, with
// every other row holding, the embedder a pure function without weights
// and the 8,192-player vector cache no larger. ROADMAP.md item 12 records
// the decision.
func TestQualityLedger(t *testing.T) {
	want, err := readLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]ledgerRow, len(ledgerFamilies))
	ran := make([]bool, len(ledgerFamilies))
	t.Run("families", func(t *testing.T) {
		for i, f := range ledgerFamilies {
			t.Run(f.name, func(t *testing.T) {
				t.Parallel()
				ran[i] = true
				got[i] = f.rows(t)
			})
		}
	})
	computed := map[string]ledgerRow{}
	var unlisted []ledgerRow
	for i := range ledgerFamilies {
		for _, r := range got[i] {
			computed[r.key()] = r
			if _, ok := want.byKey[r.key()]; !ok {
				unlisted = append(unlisted, r)
			}
		}
	}
	filtered := map[string]bool{} // families -run left out
	for i, f := range ledgerFamilies {
		filtered[f.name] = !ran[i]
	}

	var table strings.Builder
	tw := tabwriter.NewWriter(&table, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, ledgerHeader+"\tnow\tdiff\tstatus")
	failed := false
	for _, w := range want.rows {
		if filtered[w.exp] {
			continue
		}
		now, diff, status := "-", "-", "ok"
		g, ok := computed[w.key()]
		switch {
		case !ok:
			status = "MISSING"
		case g.dir != w.dir || g.prec != w.prec:
			status = fmt.Sprintf("WANT dir %s at %d decimals", g.dir, g.prec)
		default:
			v := g.rounded()
			now, diff = w.format(v), fmt.Sprintf("%+.*f", w.prec, v-w.value)
			if !w.holds(v) {
				status = "BELOW FLOOR"
				if w.dir == "max" {
					status = "ABOVE CEILING"
				}
			}
		}
		if status != "ok" {
			failed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", w.key(), w.format(w.value), w.format(w.floor), w.dir, now, diff, status)
	}
	tw.Flush()
	if failed || len(unlisted) > 0 {
		t.Errorf("%s does not hold:\n%s", ledgerPath, table.String())
	}
	if len(unlisted) > 0 {
		var tsv strings.Builder
		for _, r := range unlisted {
			v := r.format(r.value)
			fmt.Fprintf(&tsv, "%s\t%s\t%s\t%s\n", r.key(), v, v, r.dir)
		}
		t.Errorf("%d recomputed rows are not in %s; paste them in:\n%s", len(unlisted), ledgerPath, tsv.String())
	}
}

// ledger is testdata/quality.tsv: its rows in file order, and by key.
type ledger struct {
	rows  []ledgerRow
	byKey map[string]ledgerRow
}

// readLedger parses the table. The precision of a row is the number of
// decimals of its floor; a duplicate key, an unknown dir or a row whose
// value or floor does not parse is an error.
func readLedger(path string) (*ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l := &ledger{byKey: map[string]ledgerRow{}}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if n == 1 {
			if line != ledgerHeader {
				return nil, fmt.Errorf("%s:1: header %q, want %q", path, line, ledgerHeader)
			}
			continue
		}
		fs := strings.Split(line, "\t")
		if len(fs) != 7 {
			return nil, fmt.Errorf("%s:%d: %d fields, want 7", path, n, len(fs))
		}
		r := ledgerRow{exp: fs[0], subject: fs[1], cond: fs[2], metric: fs[3], dir: fs[6]}
		if _, frac, ok := strings.Cut(fs[5], "."); ok {
			r.prec = len(frac)
		}
		var errV, errF error
		r.value, errV = strconv.ParseFloat(fs[4], 64)
		r.floor, errF = strconv.ParseFloat(fs[5], 64)
		switch {
		case errV != nil || errF != nil:
			return nil, fmt.Errorf("%s:%d: value %q or floor %q is not a number", path, n, fs[4], fs[5])
		case r.dir != "min" && r.dir != "max":
			return nil, fmt.Errorf("%s:%d: dir %q, want min or max", path, n, r.dir)
		}
		if _, dup := l.byKey[r.key()]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate row %q", path, n, r.key())
		}
		l.byKey[r.key()] = r
		l.rows = append(l.rows, r)
	}
	return l, sc.Err()
}

// ------------------------------------------------------------- families

// e2Thresholds is E2's sweep of the fixed histogram-difference threshold.
var e2Thresholds = []float64{0.05, 0.10, 0.20, 0.35, 0.50, 0.80, 1.20, 1.60, 1.90}

// boundaryPR scores the boundaries at threshold on the corpus at ±2 frames.
func boundaryPR(sweep *shotdet.Sweeper, vids []*synth.Video, threshold float64) eval.PR {
	var pr eval.PR
	for _, v := range vids {
		pr.Add(eval.MatchBoundaries(sweep.Detect(v.Frames, threshold), v.Truth.Boundaries(), 2))
	}
	return pr
}

// e2Rows is the segment detector's boundary precision and recall across
// the threshold sweep. One Sweeper serves the whole sweep: the access
// pattern it amortizes (same footage, many thresholds).
func e2Rows(t *testing.T) []ledgerRow {
	vids := benchCorpus(t)
	var sweep shotdet.Sweeper
	var rows []ledgerRow
	for _, th := range e2Thresholds {
		rows = append(rows, prRows("E2", "boundary ±2", fmt.Sprintf("threshold %.2f", th), boundaryPR(&sweep, vids, th))...)
	}
	return rows
}

var shotLabels = []string{"tennis", "close-up", "audience", "other"}

// e3Rows is the four-way classifier on the ground-truth shots, given the
// calibrated court colour.
func e3Rows(t *testing.T) []ledgerRow {
	vids := benchCorpus(t)
	cls := shotdet.NewClassifier(synth.CourtColor)
	conf := eval.NewConfusion(shotLabels...)
	for _, v := range vids {
		for _, s := range v.Truth.Shots {
			got, _ := cls.ClassifyShot(v.Frames, s.Start, s.End)
			observe(t, conf, s.Class.String(), got.String())
		}
	}
	return confusionRows("E3", "shot class, court given", conf)
}

// shippedRows scores what ingest runs: shotdet.SegmentAndClassify on E2's
// corpus, boundaries at ±2 frames and each true shot's class as the
// detected shot over its middle frame classifies it under the court-colour
// vote. The boundary rows name the shipped threshold, so moving
// shotdet.Threshold re-keys them.
func shippedRows(t *testing.T) []ledgerRow {
	vids := benchCorpus(t)
	var pr eval.PR
	conf := eval.NewConfusion(shotLabels...)
	for _, v := range vids {
		shots, err := shotdet.SegmentAndClassify(frame.Frames(v.Frames))
		if err != nil {
			t.Fatal(err)
		}
		pr.Add(eval.MatchBoundaries(starts(shots), v.Truth.Boundaries(), 2))
		observeShots(t, conf, shots, v.Truth.Shots)
	}
	cond := fmt.Sprintf("default threshold %.2f", shotdet.Threshold)
	return append(prRows("shipped", "boundary ±2", cond, pr), confusionRows("shipped", "shot class, court voted", conf)...)
}

// e4Rows is the player tracker's mean position error against the scripted
// truth, per script and noise level, and the share of frames it lost.
func e4Rows(t *testing.T) []ledgerRow {
	var rows []ledgerRow
	for _, script := range synth.Scripts() {
		for _, noise := range []int{2, 4, 8} {
			cfg := synth.DefaultConfig(4000)
			cfg.Noise = noise
			frames, near, far, _, err := synth.RenderTennisShot(cfg, script, 60)
			if err != nil {
				t.Fatal(err)
			}
			res := trackFrames(frames)
			cond := fmt.Sprintf("noise %d", noise)
			lost := 100 * float64(res.Near.LostFrames+res.Far.LostFrames) / float64(2*len(frames))
			rows = append(rows,
				errorRow("E4", script, cond, "near px", meanTrackError(res.Near, near)),
				errorRow("E4", script, cond, "far px", meanTrackError(res.Far, far)),
				errorRow("E4", script, cond, "lost %", lost))
		}
	}
	return rows
}

// trackFrames is track.ShotTracker.TrackShot over a whole in-memory shot,
// which cannot fail.
func trackFrames(frames []*frame.Image) track.ShotResult {
	res, err := new(track.ShotTracker).TrackShot(frame.Frames(frames), 0, len(frames))
	if err != nil {
		panic(err)
	}
	return res
}

// meanTrackError is the mean Euclidean distance between a track's
// observations and the truth; +Inf for a track with no observations, which
// fails any ceiling.
func meanTrackError(tr track.Track, truth []synth.Point) float64 {
	var sum float64
	n := 0
	for i, o := range tr.Obs {
		if i >= len(truth) {
			break
		}
		dx, dy := o.X-truth[i].X, o.Y-truth[i].Y
		sum += math.Sqrt(dx*dx + dy*dy)
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// eventKinds are the events rules.TennisRules detects.
var eventKinds = []string{"net-play", "rally", "service"}

// e5Rows is the spatio-temporal rules' event detection over scripted
// shots, matched by interval IoU >= 0.5.
func e5Rows(t *testing.T) []ledgerRow {
	geom := synth.DefaultConfig(0)
	eng, err := rules.NewEngine(rules.TennisRules(), rules.StandardGeometry(geom.W, geom.H))
	if err != nil {
		t.Fatal(err)
	}
	perKind := map[string]*eval.PR{}
	for _, kind := range eventKinds {
		perKind[kind] = new(eval.PR)
	}
	for seed := int64(0); seed < 12; seed++ {
		for _, script := range synth.Scripts() {
			frames, _, _, truth, err := synth.RenderTennisShot(synth.DefaultConfig(5000+seed), script, 70)
			if err != nil {
				t.Fatal(err)
			}
			dets := eng.Detect(fde.TrackToSeries(trackFrames(frames)), len(frames))
			for _, kind := range eventKinds {
				var dIv, tIv []eval.Interval
				for _, d := range dets {
					if d.Kind == kind {
						dIv = append(dIv, eval.Interval{Start: d.Start, End: d.End, Label: kind})
					}
				}
				for _, tv := range truth {
					if string(tv.Kind) == kind {
						tIv = append(tIv, eval.Interval{Start: tv.Start, End: tv.End, Label: kind})
					}
				}
				perKind[kind].Add(eval.MatchIntervals(dIv, tIv, 0.5))
			}
		}
	}
	var rows []ledgerRow
	for _, kind := range eventKinds {
		rows = append(rows, prRows("E5", kind, "iou >= 0.5", *perKind[kind])...)
	}
	return rows
}

// e6Rows is HMM stroke recognition accuracy (5 classes, 30 training and 20
// test sequences per class) across observation-noise levels.
func e6Rows(t *testing.T) []ledgerRow {
	var rows []ledgerRow
	for _, noise := range []float64{0.02, 0.05, 0.10, 0.20, 0.35} {
		cls, err := hmm.TrainClassifier(hmm.StrokeDataset(30, noise, 6000))
		if err != nil {
			t.Fatal(err)
		}
		conf := eval.NewConfusion(hmm.StrokeClasses...)
		for class, seqs := range hmm.StrokeDataset(20, noise, 7000) {
			for _, q := range seqs {
				got, err := cls.Classify(q)
				if err != nil {
					t.Fatal(err)
				}
				observe(t, conf, class, got)
			}
		}
		rows = append(rows, score("E6", "strokes", fmt.Sprintf("noise %.2f", noise), "accuracy", conf.Accuracy()))
	}
	return rows
}

// e7Rows is the top-N optimization against the exhaustive scan on the 20k
// documents of benchIRCorpus, over e7Queries: per k, the safe mode's
// quality (the worst query's ir.ScoreQuality) and the postings each mode
// scores summed over the queries — safe mode is the serving lanes' top-k
// kernel, the full scan ir.Index.Search; then, at k = 10, the same two under
// each fragment-round budget, the unsafe mode's quality/work trade-off.
func e7Rows(t *testing.T) []ledgerRow {
	ix := benchIRCorpus(t)
	// run sums the postings opts scores over the queries at depth k and
	// returns them with the worst query's quality.
	run := func(k int, opts ir.TopNOptions) (postings int, quality float64) {
		quality = 1
		for _, q := range e7Queries {
			hits, st, err := ix.SearchTopN(q, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			postings += st.PostingsScored
			qv, err := ir.ScoreQuality(ix, q, k, hits)
			if err != nil {
				t.Fatal(err)
			}
			quality = min(quality, qv)
		}
		return postings, quality
	}
	var rows []ledgerRow
	for _, k := range []int{10, 20, 50} {
		full := 0
		for _, q := range e7Queries {
			_, st, err := ix.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			full += st.PostingsScored
		}
		safe, quality := run(k, ir.TopNOptions{})
		cond := fmt.Sprintf("k %d", k)
		rows = append(rows,
			score("E7", "top-N safe", cond, "quality", quality),
			countRow("E7", "top-N safe", cond, "postings", safe),
			countRow("E7", "full scan", cond, "postings", full))
	}
	for _, budget := range []int{1, 2, 4, 8, 16, 24, 32} {
		postings, quality := run(10, ir.TopNOptions{Fragments: 32, MaxFragments: budget})
		cond := fmt.Sprintf("rounds %d", budget)
		rows = append(rows,
			score("E7", "top-N budget, k 10", cond, "quality", quality),
			countRow("E7", "top-N budget, k 10", cond, "postings", postings))
	}
	return rows
}

// An e8Template is one of E8's queries in three forms: the structural
// query whose W.Run answer is the truth, its text in the query language,
// and the words a keyword searcher would type.
type e8Template struct {
	name    string
	query   webspace.Query
	text    string
	keyword string
}

var e8Templates = []e8Template{
	{
		"lefty female champions (motivating)",
		webspace.MotivatingQuery(),
		dlse.MotivatingQueryText,
		"left-handed female champion winner australian open",
	},
	{
		"male champions",
		webspace.Query{Class: "Player", Where: []webspace.Constraint{
			{Attr: "sex", Op: webspace.OpEq, Val: "male"},
			{Path: []string{"wonFinals"}},
		}},
		`find Player where sex = "male" and exists wonFinals`,
		"male champion winner australian open final",
	},
	{
		"champions since 1998",
		webspace.Query{Class: "Player", Where: []webspace.Constraint{
			{Path: []string{"wonFinals"}, Attr: "year", Op: webspace.OpGe, Val: int64(1998)},
		}},
		`find Player where wonFinals.year >= 1998`,
		"winner 1998 1999 2000 2001 australian open",
	},
	{
		"swiss players",
		webspace.Query{Class: "Player", Where: []webspace.Constraint{
			{Attr: "country", Op: webspace.OpEq, Val: "Switzerland"},
		}},
		`find Player where country = "Switzerland"`,
		"tennis player from switzerland",
	},
	{
		"left-handed players",
		webspace.Query{Class: "Player", Where: []webspace.Constraint{
			{Attr: "handedness", Op: webspace.OpEq, Val: "left"},
		}},
		`find Player where handedness = "left"`,
		"left-handed tennis player",
	},
}

var (
	e8Once sync.Once
	e8Site *webspace.Site
	e8Err  error
)

// e8Config is E8's site: 128 players, finals 1982–2001, seed 8000.
var e8Config = webspace.SiteConfig{Players: 128, YearStart: 1982, YearEnd: 2001, Seed: 8000}

// e8Fixture is E8's site, generated once.
func e8Fixture(tb testing.TB) *webspace.Site {
	tb.Helper()
	e8Once.Do(func() { e8Site, e8Err = webspace.GenerateAusOpen(e8Config) })
	if e8Err != nil {
		tb.Fatal(e8Err)
	}
	return e8Site
}

// runTruth is the set of objects W.Run answers q with.
func runTruth(tb testing.TB, w *webspace.Webspace, q webspace.Query) map[int64]bool {
	tb.Helper()
	objs, err := w.Run(q)
	if err != nil {
		tb.Fatal(err)
	}
	truth := map[int64]bool{}
	for _, o := range objs {
		truth[o.ID] = true
	}
	return truth
}

// rankedLanes are the engine's three page lanes, by the name their ledger
// rows carry, each as the query it makes of a text.
var rankedLanes = []struct {
	name  string
	query func(text string) dlse.Query
}{
	{"keyword", func(text string) dlse.Query { return dlse.Query{Keyword: text} }},
	{"vector", func(text string) dlse.Query { return dlse.Query{Vector: text} }},
	{"hybrid", func(text string) dlse.Query { return dlse.Query{Hybrid: text} }},
}

// laneMetrics name the scores scoreLane returns, in order.
var laneMetrics = [3]string{"P@10", "R@2n", "nDCG@10"}

// scoreLane ranks q on eng to depth limit (0: the whole ranking) and scores
// the ranking against truth by P@10, recall@2n (n the truth's size) and
// nDCG@10. A ranked lane ranks pages; each is mapped to its object and a
// repeated object keeps only its first rank. A combined query answers
// objects.
func scoreLane(t *testing.T, site *webspace.Site, eng *dlse.Engine, q dlse.Query, limit int, truth map[int64]bool) [3]float64 {
	t.Helper()
	rs, err := eng.Search(context.Background(), q, dlse.WithLimit(limit))
	if err != nil {
		t.Fatal(err)
	}
	var ranked []int64
	seen := map[int64]bool{}
	for _, it := range rs.Items {
		id := site.Pages[it.Doc].ObjectID // doc ID = page position
		if it.Object != nil {
			id = it.Object.ID // a combined answer names its object
		}
		if !seen[id] {
			seen[id] = true
			ranked = append(ranked, id)
		}
	}
	return [3]float64{
		eval.AtK(ranked, truth, 10).Precision(),
		eval.AtK(ranked, truth, 2*len(truth)).Recall(),
		eval.NDCG(ranked, truth, 10),
	}
}

// e8Rows scores each template's conceptual query through dlse against
// W.Run by set precision and recall, and each ranked lane's whole ranking
// on its keyword text (scoreLane).
func e8Rows(t *testing.T) []ledgerRow {
	site := e8Fixture(t)
	lib, err := core.NewMetaIndex()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dlse.NewSegmented(site, core.SingleSegment(lib.Freeze()), dlse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rows []ledgerRow
	for _, tm := range e8Templates {
		truth := runTruth(t, site.W, tm.query)
		req, err := dlse.ParseRequest(site.W.Schema(), tm.text)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := eng.Search(context.Background(), dlse.Query{Request: &req})
		if err != nil {
			t.Fatal(err)
		}
		var found []int64
		for _, it := range rs.Items {
			found = append(found, it.Object.ID)
		}
		set := eval.AtK(found, truth, len(found))
		rows = append(rows,
			score("E8", tm.name, "conceptual", "P", set.Precision()),
			score("E8", tm.name, "conceptual", "R", set.Recall()))
		for _, lane := range rankedLanes {
			for i, v := range scoreLane(t, site, eng, lane.query(tm.keyword), 0, truth) {
				rows = append(rows, score("E8", tm.name, lane.name, laneMetrics[i], v))
			}
		}
	}
	return rows
}

// ------------------------------------------------------------ judged

// A judgedQuery is one query of the judged family: the text every ranked
// lane searches, and the objects that truly answer it. A query whose truth
// only the content join reaches also carries source, the query-language
// form the content lane asks.
type judgedQuery struct {
	text   string
	truth  map[int64]bool
	source string
}

// A judgedSite is one size of the judged family: a site, the engine over
// its pages and video library, and the scripted events of the broadcast
// indexed as each final's video, by final ID (nil where the size has no
// video library).
type judgedSite struct {
	cfg    webspace.SiteConfig
	site   *webspace.Site
	eng    *dlse.Engine
	events map[int64][]synth.EventTruth
}

// judgedSizes are the sites the judged family ranks on: E8's 128 players
// over the E9 corpus's library, the same configuration at 1,024 players,
// and the ranked benchmarks' 8,192-player site. Each is built once.
var judgedSizes = []func(testing.TB) *judgedSite{judged128, judged1024, judged8192}

// onceSite returns a getter that builds its site on the first call and
// returns that one, or fails on its error, on every call.
func onceSite(build func(tb testing.TB) (*judgedSite, error)) func(testing.TB) *judgedSite {
	var (
		once sync.Once
		js   *judgedSite
		err  error
	)
	return func(tb testing.TB) *judgedSite {
		tb.Helper()
		once.Do(func() { js, err = build(tb) })
		if err != nil {
			tb.Fatal(err)
		}
		return js
	}
}

// judged128 is E8's site over the E9 corpus's library without a difficulty
// (its cuts column).
func judged128(tb testing.TB) *judgedSite {
	cuts := e9Fixture(tb).cols["cuts"]
	return &judgedSite{cfg: e8Config, site: e8Fixture(tb), eng: cuts.dl.engine.Load(), events: cuts.events}
}

// judged1024 is E8's site configuration at 1,024 players.
var judged1024 = onceSite(func(testing.TB) (*judgedSite, error) {
	cfg := e8Config
	cfg.Players = 1024
	site, err := webspace.GenerateAusOpen(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := dlse.NewSegmented(site, nil, dlse.Options{})
	if err != nil {
		return nil, err
	}
	return &judgedSite{cfg: cfg, site: site, eng: eng}, nil
})

// judged8192 is rankedFixture's site and engine.
func judged8192(tb testing.TB) *judgedSite {
	site, eng := rankedFixture(tb)
	return &judgedSite{cfg: rankedConfig, site: site, eng: eng}
}

// judgedClasses are the judged family's query classes, each generated from
// a site; a class that generates no query at a size has no rows there.
var judgedClasses = []struct {
	name    string
	queries func(tb testing.TB, js *judgedSite) []judgedQuery
}{
	{"value-in-text", valueQueries},
	{"structural", structuralQueries},
	{"paraphrase", paraphraseQueries},
	{"video event", videoQueries},
}

// judgedRows scores every ranked lane on every class of generated queries
// at every size, and the content lane on the queries that carry a source:
// per class, lane and size the mean over the class's queries of each
// scoreLane metric, each query ranked to depth max(10, 2n), and the number
// of queries.
func judgedRows(t *testing.T) []ledgerRow {
	var rows []ledgerRow
	for _, size := range judgedSizes {
		js := size(t)
		cond := fmt.Sprintf("%d players", js.cfg.Players)
		for _, class := range judgedClasses {
			qs := class.queries(t, js)
			if len(qs) == 0 {
				continue
			}
			rows = append(rows, countRow("judged", class.name, cond, "queries", len(qs)))
			// laneRows appends the lane's mean scores, each query asked as ask builds it.
			laneRows := func(lane string, ask func(judgedQuery) dlse.Query) {
				var sum [3]float64
				for _, q := range qs {
					for i, v := range scoreLane(t, js.site, js.eng, ask(q), max(10, 2*len(q.truth)), q.truth) {
						sum[i] += v
					}
				}
				for i, v := range sum {
					rows = append(rows, score("judged", class.name, lane+", "+cond, laneMetrics[i], v/float64(len(qs))))
				}
			}
			for _, lane := range rankedLanes {
				laneRows(lane.name, func(q judgedQuery) dlse.Query { return lane.query(q.text) })
			}
			if qs[0].source != "" {
				laneRows("content", func(q judgedQuery) dlse.Query { return dlse.Query{Source: q.source} })
			}
		}
	}
	return rows
}

// runQuery appends the query of text whose truth is w.Run(q), unless that
// truth is empty: eval.NDCG scores an empty truth as 1 for any ranking.
func runQuery(tb testing.TB, qs []judgedQuery, w *webspace.Webspace, text string, q webspace.Query) []judgedQuery {
	tb.Helper()
	if truth := runTruth(tb, w, q); len(truth) > 0 {
		qs = append(qs, judgedQuery{text: text, truth: truth})
	}
	return qs
}

// attrValues is the sorted distinct values of a string attribute over a
// class's objects.
func attrValues(w *webspace.Webspace, class, attr string) []string {
	seen := map[string]bool{}
	var vals []string
	for _, id := range w.All(class) {
		o, _ := w.Get(id)
		if v := o.StringAttr(attr); !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	sort.Strings(vals)
	return vals
}

// attrIs is the query for the objects of class whose attr is val.
func attrIs(class, attr, val string) webspace.Query {
	return webspace.Query{Class: class, Where: []webspace.Constraint{{Attr: attr, Op: webspace.OpEq, Val: val}}}
}

// valueQueries ask for one attribute value in the words the pages print
// it in: every country, handedness, sex and final category the site holds.
// (A player page prints its sex only as a pronoun, which the analyzer drops
// as a stopword.)
func valueQueries(tb testing.TB, js *judgedSite) []judgedQuery {
	w := js.site.W
	var qs []judgedQuery
	for _, c := range attrValues(w, "Player", "country") {
		qs = runQuery(tb, qs, w, "tennis player from "+c, attrIs("Player", "country", c))
	}
	for _, h := range attrValues(w, "Player", "handedness") {
		qs = runQuery(tb, qs, w, h+"-handed tennis player", attrIs("Player", "handedness", h))
	}
	for _, sx := range attrValues(w, "Player", "sex") {
		qs = runQuery(tb, qs, w, sx+" tennis player", attrIs("Player", "sex", sx))
	}
	for _, c := range attrValues(w, "Final", "category") {
		qs = runQuery(tb, qs, w, c+"'s singles final", attrIs("Final", "category", c))
	}
	return qs
}

// structuralQueries ask for what only the links answer: champions and
// finalists (wonFinals, playedFinals), champions of a category, champions
// since the last five editions began and finalists before the sixth, and
// the finals of each five-year window of the site's editions.
func structuralQueries(tb testing.TB, js *judgedSite) []judgedQuery {
	w, first, last := js.site.W, js.cfg.YearStart, js.cfg.YearEnd
	player := func(cs ...webspace.Constraint) webspace.Query {
		return webspace.Query{Class: "Player", Where: cs}
	}
	var qs []judgedQuery
	qs = runQuery(tb, qs, w, "australian open champion", player(webspace.Constraint{Path: []string{"wonFinals"}}))
	qs = runQuery(tb, qs, w, "australian open finalist", player(webspace.Constraint{Path: []string{"playedFinals"}}))
	for _, c := range attrValues(w, "Final", "category") {
		qs = runQuery(tb, qs, w, c+"'s australian open champion",
			player(webspace.Constraint{Path: []string{"wonFinals"}, Attr: "category", Op: webspace.OpEq, Val: c}))
	}
	qs = runQuery(tb, qs, w, fmt.Sprintf("australian open champion since %d", last-4),
		player(webspace.Constraint{Path: []string{"wonFinals"}, Attr: "year", Op: webspace.OpGe, Val: int64(last - 4)}))
	qs = runQuery(tb, qs, w, fmt.Sprintf("australian open finalist before %d", first+5),
		player(webspace.Constraint{Path: []string{"playedFinals"}, Attr: "year", Op: webspace.OpLt, Val: int64(first + 5)}))
	for y := first; y+4 <= last; y += 5 {
		qs = runQuery(tb, qs, w, fmt.Sprintf("australian open final from %d to %d", y, y+4),
			webspace.Query{Class: "Final", Where: []webspace.Constraint{
				{Attr: "year", Op: webspace.OpGe, Val: int64(y)},
				{Attr: "year", Op: webspace.OpLe, Val: int64(y + 4)},
			}})
	}
	return qs
}

// demonyms name the people of each country the site generator draws from.
var demonyms = map[string]string{
	"Australia": "australian", "Belgium": "belgian", "Croatia": "croatian",
	"France": "french", "Germany": "german", "Japan": "japanese",
	"Netherlands": "dutch", "Russia": "russian", "Spain": "spanish",
	"Sweden": "swedish", "Switzerland": "swiss", "USA": "american",
}

// synonyms are words for a player attribute's value that no page prints.
var synonyms = []struct{ attr, val, word string }{
	{"handedness", "left", "lefty"},
	{"handedness", "left", "southpaw"},
	{"handedness", "right", "righty"},
	{"sex", "female", "woman"},
	{"sex", "male", "man"},
}

// paraphraseQueries ask for a player attribute's value in words the pages
// do not print: the demonym of every country the site holds, and synonyms.
func paraphraseQueries(tb testing.TB, js *judgedSite) []judgedQuery {
	tb.Helper()
	w := js.site.W
	var qs []judgedQuery
	for _, c := range attrValues(w, "Player", "country") {
		d, ok := demonyms[c]
		if !ok {
			tb.Fatalf("no demonym for %q", c)
		}
		qs = runQuery(tb, qs, w, d+" tennis player", attrIs("Player", "country", c))
	}
	for _, s := range synonyms {
		qs = runQuery(tb, qs, w, s.word+" tennis player", attrIs("Player", s.attr, s.val))
	}
	return qs
}

// videoQueries ask, for each event kind, for the finals whose broadcast's
// script holds it: a truth only the library's content reaches, which the
// content lane asks as `find Final scenes "<kind>" via video required`.
func videoQueries(tb testing.TB, js *judgedSite) []judgedQuery {
	var qs []judgedQuery
	for _, kind := range eventKinds {
		truth := map[int64]bool{}
		for id, events := range js.events {
			for _, e := range events {
				if string(e.Kind) == kind {
					truth[id] = true
				}
			}
		}
		if len(truth) > 0 {
			qs = append(qs, judgedQuery{
				text:   "australian open final with " + strings.ReplaceAll(kind, "-", " "),
				truth:  truth,
				source: fmt.Sprintf("find Final scenes %q via video required", kind),
			})
		}
	}
	return qs
}
