// Experiment harness: one benchmark per experiment in DESIGN.md §5.
//
// The demo paper contains no quantitative tables; its only figure is the
// detector dependency graph (Figure 1). E1 regenerates that figure exactly;
// E2-E9 reconstruct the quantitative behaviour of the four subsystems the
// demo integrates, with the methodology of the cited companion papers.
// The scores of E2-E9 live in testdata/quality.tsv, checked by
// TestQualityLedger (quality_test.go); their benchmarks here only time the
// experiment's core operation for the -benchmem report. E1 and E9 print
// a table once, on the first invocation.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dlse"
	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/grammar"
	"repro/internal/hmm"
	"repro/internal/ir"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/shotdet"
	"repro/internal/synth"
	"repro/internal/vidfmt"
	"repro/internal/webspace"
)

// ---------------------------------------------------------------- fixtures

var (
	corpusOnce sync.Once
	corpus     []*synth.Video // 6 videos, ground truth attached
)

func benchCorpus(tb testing.TB) []*synth.Video {
	tb.Helper()
	corpusOnce.Do(func() {
		cfg := synth.DefaultConfig(1000)
		cfg.Shots = 10
		vids, err := synth.GenerateCorpus(cfg, 6)
		if err != nil {
			panic(err)
		}
		corpus = vids
	})
	return corpus
}

var (
	irCorpusOnce sync.Once
	irCorpus     *ir.Index
)

func benchIRCorpus(tb testing.TB) *ir.Index {
	tb.Helper()
	irCorpusOnce.Do(func() {
		rng := rand.New(rand.NewSource(2000))
		zipf := rand.NewZipf(rng, 1.15, 1, 2999)
		ix := ir.NewIndex()
		for d := 0; d < 20000; d++ {
			n := 40 + rng.Intn(120)
			var sb strings.Builder
			for w := 0; w < n; w++ {
				fmt.Fprintf(&sb, "w%d ", zipf.Uint64())
			}
			if _, err := ix.Add(fmt.Sprintf("d%05d", d), sb.String()); err != nil {
				panic(err)
			}
		}
		ix.Freeze()
		irCorpus = ix
	})
	return irCorpus
}

// ------------------------------------------------------------ E1: Figure 1

var fig1Once sync.Once

// BenchmarkFig1DependencyGraph regenerates Figure 1 of the paper: the
// tennis FDE detector dependency graph, from the feature grammar.
func BenchmarkFig1DependencyGraph(b *testing.B) {
	fig1Once.Do(func() {
		g := grammar.Tennis()
		fmt.Printf("\n=== E1 (Figure 1): Tennis FDE detector dependencies ===\n")
		fmt.Print(g.Text())
		fmt.Printf("--- DOT form (render with graphviz) ---\n%s\n", g.DOT())
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := grammar.Tennis()
		_ = g.DOT()
	}
}

// ----------------------------------------------- E2: shot boundary sweep

// BenchmarkE2ShotBoundarySweep times the segment detector over one video.
// Its boundary precision/recall across the threshold sweep are the E2 rows
// of the quality ledger.
func BenchmarkE2ShotBoundarySweep(b *testing.B) {
	vids := benchCorpus(b)
	v := vids[0]
	var sweep shotdet.Sweeper
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sweep.Detect(v.Frames, shotdet.Threshold)
	}
	b.ReportMetric(float64(len(v.Frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// -------------------------------------------- E3: shot classification

// BenchmarkE3ShotClassification times the four-way shot classifier on one
// shot. Its accuracy and per-class precision/recall over {tennis, close-up,
// audience, other} are the E3 rows of the quality ledger.
func BenchmarkE3ShotClassification(b *testing.B) {
	vids := benchCorpus(b)
	cls := shotdet.NewClassifier(synth.CourtColor)
	v := vids[0]
	s := v.Truth.Shots[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = cls.ClassifyShot(v.Frames, s.Start, s.End)
	}
}

// ------------------------------------------------- E4: tracking error

// BenchmarkE4TrackingError times the player tracker over one scripted
// shot. Its position error against the scripted truth and its track-loss
// rate, per script and noise level, are the E4 rows of the quality ledger.
func BenchmarkE4TrackingError(b *testing.B) {
	cfg := synth.DefaultConfig(4000)
	frames, _, _, _, _ := synth.RenderTennisShot(cfg, "rally", 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = trackFrames(frames)
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// ------------------------------------------------ E5: event detection

// BenchmarkE5EventRules times the spatio-temporal rules over one tracked
// shot. Their net-play, rally and service precision/recall over scripted
// shots, matched by interval IoU >= 0.5, are the E5 rows of the quality
// ledger.
func BenchmarkE5EventRules(b *testing.B) {
	cfg := synth.DefaultConfig(5000)
	frames, _, _, _, _ := synth.RenderTennisShot(cfg, "net-approach", 70)
	res := trackFrames(frames)
	series := fde.TrackToSeries(res)
	eng, _ := rules.NewEngine(rules.TennisRules(), rules.StandardGeometry(cfg.W, cfg.H))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.Detect(series, len(frames))
	}
}

// --------------------------------------------- E6: HMM stroke recognition

// BenchmarkE6HMMStrokes times training the companion paper's per-class
// stroke HMMs on E6's training set at noise 0.05, over synthetic pose
// symbol sequences. Their accuracy across observation-noise levels is the
// E6 rows of the quality ledger.
func BenchmarkE6HMMStrokes(b *testing.B) {
	train := hmm.StrokeDataset(30, 0.05, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hmm.TrainClassifier(train); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------ E7: IR top-N optimization

// e7Queries are E7's queries over benchIRCorpus: one to four terms of the
// Zipf vocabulary's head.
var e7Queries = []string{"w3", "w1 w3", "w0 w2 w7", "w5 w11 w23 w47"}

// BenchmarkE7TopNOptimization times the top-N retrieval optimization's
// safe mode, the serving lanes' top-k kernel, on the 20k-document corpus at
// k = 10. Its quality and postings scored against the exhaustive scan, and
// those of the unsafe fragment budgets, are the E7 rows of the quality
// ledger.
func BenchmarkE7TopNOptimization(b *testing.B) {
	ix := benchIRCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.SearchTopN(e7Queries[i%len(e7Queries)], 10, ir.TopNOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------- E8: webspace vs keyword baseline

// BenchmarkE8WebspaceVsKeyword times the webspace's conceptual queries on
// E8's five templates, the motivating query among them. Their answers
// through dlse, and the keyword, vector and hybrid lanes' rankings, scored
// against them, are the E8 rows of the quality ledger.
func BenchmarkE8WebspaceVsKeyword(b *testing.B) {
	site := e8Fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := site.W.Run(e8Templates[i%len(e8Templates)].query); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------- E9: end-to-end demo

var e9PrintOnce sync.Once

// BenchmarkE9EndToEnd times the motivating query over the E9 corpus's
// library without a difficulty (motivating_test.go): on E8's 128-player
// site, whose women's finals the broadcasts were rendered for, and on the
// ranked benchmarks' 8,192-player site, whose 1982–2001 finals carry the
// same video names. The first invocation prints the E9 rows of the quality
// ledger: the answer judged under every difficulty.
func BenchmarkE9EndToEnd(b *testing.B) {
	e9PrintOnce.Do(func() {
		fmt.Printf("\n=== E9: the motivating query judged from pixels ===\n")
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		for _, r := range e9Rows(b) {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.cond, r.subject, r.metric, r.format(r.value))
		}
		tw.Flush()
	})
	cuts := e9Fixture(b).cols["cuts"].dl.engine.Load()
	_, ranked := rankedFixture(b)
	q := dlse.Query{Source: dlse.MotivatingQueryText}
	for _, size := range []struct {
		name string
		eng  *dlse.Engine
	}{
		{"players=128", cuts},
		{"players=8192", ranked.WithVideo(cuts.VideoIndex())},
	} {
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := size.eng.Search(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------- throughput benchmarks

// BenchmarkSVFEncode measures SVF compression throughput.
func BenchmarkSVFEncode(b *testing.B) {
	vids := benchCorpus(b)
	frames := vids[0].Frames[:100]
	b.SetBytes(int64(100 * 3 * vids[0].W * vids[0].H))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vidfmt.EncodeAll(frames, 25, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVFDecode measures SVF decode throughput.
func BenchmarkSVFDecode(b *testing.B) {
	vids := benchCorpus(b)
	frames := vids[0].Frames[:100]
	data, err := vidfmt.EncodeAll(frames, 25, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(100 * 3 * vids[0].W * vids[0].H))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vidfmt.DecodeAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogram measures colour-histogram extraction speed: the
// allocating form against the scratch-reuse form the ingest hot loop uses
// (one histogram per frame vs zero steady-state allocations).
func BenchmarkHistogram(b *testing.B) {
	vids := benchCorpus(b)
	im := vids[0].Frames[0]
	b.Run("alloc", func(b *testing.B) {
		b.SetBytes(int64(3 * im.W * im.H))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = frame.HistogramOf(im, 8)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		h := frame.NewHistogram(8)
		b.SetBytes(int64(3 * im.W * im.H))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.SetImage(im)
		}
	})
}

// BenchmarkFDEPipeline measures full-pipeline indexing throughput.
func BenchmarkFDEPipeline(b *testing.B) {
	vids := benchCorpus(b)
	v := vids[0]
	engine, err := fde.NewTennisEngine(fde.DefaultTennisConfig())
	if err != nil {
		b.Fatal(err)
	}
	doc := core.Video{Name: "bench", Width: v.W, Height: v.H, FPS: v.FPS, Frames: len(v.Frames)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Process(doc, v.Frames); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(v.Frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkIngestVideo measures what one one-video commit pays before the
// index is installed, in dlbench's shape (3 shots x 32 frames, 160x120),
// single worker: opening the SVF file, the FDE parse — whose detectors
// decode the frames they scan through the file's frame index — and the
// materialisation into a one-video meta-index. Beside it, the most decoded
// frames the parse held at once (fde.Result.Held).
func BenchmarkIngestVideo(b *testing.B) {
	cfg := synth.DefaultConfig(7920)
	cfg.Shots = 3
	cfg.MinShotLen, cfg.MaxShotLen = 32, 32
	bc, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "live.svf")
	if err := vidfmt.WriteFile(path, bc.Frames, bc.FPS, 0); err != nil {
		b.Fatal(err)
	}
	engine, err := fde.NewTennisEngine(fde.DefaultTennisConfig())
	if err != nil {
		b.Fatal(err)
	}
	held := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := vidfmt.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		meta := f.Meta()
		doc := core.Video{Name: "live", Path: path, Width: meta.Width, Height: meta.Height, FPS: meta.FPS, Frames: meta.Frames}
		res, err := engine.ProcessSource(doc, f, 1) // one histogram worker: sequential
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		held = max(held, res.Held)
		idx, err := core.NewMetaIndex()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fde.IndexResult(res, idx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(held), "peak-frames-held")
}

// BenchmarkColdLaneBuild measures the cold page-lane build behind
// dlse.engine_build_ms: dlbench's site (8,192 players, 40 editions, 8,352
// pages) at four text segments, both lanes built and both segfile caches
// written, as a first dlserve boot does. The caches are deleted between
// iterations so every build is cold.
func BenchmarkColdLaneBuild(b *testing.B) {
	site, err := webspace.GenerateAusOpen(webspace.SiteConfig{Players: 8192, YearStart: 1962, YearEnd: 2001, Seed: 1024})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	opts := dlse.Options{
		TextSegments: 4,
		TextSegfile:  filepath.Join(dir, "text.segf"),
		VecSegfile:   filepath.Join(dir, "vec.segf"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dlse.NewSegmented(site, nil, opts); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, p := range []string{opts.TextSegfile, opts.VecSegfile} {
			if err := os.Remove(p); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkBatchIngest measures concurrent batch-ingestion throughput:
// the full FDE pipeline over an 8-video corpus with 1 worker vs one worker
// per CPU. The outputs are byte-identical (see TestIndexBatchMatchesSequential);
// only the wall clock differs.
func BenchmarkBatchIngest(b *testing.B) {
	cfg := synth.DefaultConfig(1200)
	cfg.Shots = 6
	vids, err := synth.GenerateCorpus(cfg, 8)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]IngestJob, len(vids))
	frames := 0
	for i, v := range vids {
		jobs[i] = IngestJob{Name: fmt.Sprintf("batch-%02d", i), Frames: v.Frames, FPS: v.FPS}
		frames += len(v.Frames)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lib, err := NewLibrary()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := lib.IndexBatch(context.Background(), jobs, BatchOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkIRIndexing measures document indexing throughput.
func BenchmarkIRIndexing(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	docs := make([]string, 500)
	for i := range docs {
		var sb strings.Builder
		for w := 0; w < 80; w++ {
			fmt.Fprintf(&sb, "w%d ", rng.Intn(2000))
		}
		docs[i] = sb.String()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := ir.NewIndex()
		for d, text := range docs {
			if _, err := ix.Add(fmt.Sprintf("d%d", d), text); err != nil {
				b.Fatal(err)
			}
		}
		ix.Freeze()
	}
	b.ReportMetric(float64(len(docs))*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkIRQueryFull measures exhaustive query latency on the 20k corpus.
func BenchmarkIRQueryFull(b *testing.B) {
	ix := benchIRCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search("w0 w1", 10); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	segSearchOnce sync.Once
	segSearchSets map[int]*ir.Segments
)

// benchSegmentedCorpus builds the BenchmarkIRQueryFull corpus (same seed,
// same 20k documents) split across 1 and 4 immutable segments.
func benchSegmentedCorpus(b *testing.B) map[int]*ir.Segments {
	b.Helper()
	segSearchOnce.Do(func() {
		segSearchSets = map[int]*ir.Segments{}
		for _, nseg := range []int{1, 4} {
			rng := rand.New(rand.NewSource(2000))
			zipf := rand.NewZipf(rng, 1.15, 1, 2999)
			parts := make([]*ir.Index, nseg)
			for i := range parts {
				parts[i] = ir.NewIndex()
			}
			const docs = 20000
			per := (docs + nseg - 1) / nseg
			for d := 0; d < docs; d++ {
				n := 40 + rng.Intn(120)
				var sb strings.Builder
				for w := 0; w < n; w++ {
					fmt.Fprintf(&sb, "w%d ", zipf.Uint64())
				}
				if _, err := parts[d/per].Add(fmt.Sprintf("d%05d", d), sb.String()); err != nil {
					panic(err)
				}
			}
			segs, err := ir.NewSegments(parts)
			if err != nil {
				panic(err)
			}
			segSearchSets[nseg] = segs
		}
	})
	return segSearchSets
}

// BenchmarkSegmentedSearch measures scatter-gather ranked retrieval across
// 1 vs 4 immutable segments of the same 20k-document corpus. Answers are
// byte-identical to the monolithic index by construction (segments freeze
// against union corpus statistics; ir.TestSegmentsMatchMonolithic locks
// it); this measures what the scatter legs and the top-K stream merge cost
// — the latency shape of the incremental, shard-per-commit engine.
func BenchmarkSegmentedSearch(b *testing.B) {
	sets := benchSegmentedCorpus(b)
	for _, nseg := range []int{1, 4} {
		segs := sets[nseg]
		b.Run(fmt.Sprintf("segs=%d", nseg), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := segs.Search("w0 w1", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------ segfile persistence

var (
	coldOpenOnce  sync.Once
	coldOpenBlobs map[string][]byte // "format/segs=N" -> serialized library
)

// coldCorpusParts builds the synthetic meta-index rows of the cold-open
// corpus: the same 64 videos (8 shots, 24 tracked states and 4 events per
// shot) split across nseg partitions, each seeded at the previous one's ID
// state — identical rows in every split.
func coldCorpusParts(nseg int) ([]*core.MetaIndex, []core.SegmentMeta) {
	const vids = 64
	parts := make([]*core.MetaIndex, 0, nseg)
	metas := make([]core.SegmentMeta, 0, nseg)
	base := core.IDBase{}
	kinds := []string{"net-play", "rally", "service", "volley"}
	seq := 0
	per := vids / nseg
	for i := 0; i < nseg; i++ {
		p := core.NewMetaIndexAt(base)
		for v := 0; v < per; v++ {
			vid := p.AddVideo(core.Video{
				Name: fmt.Sprintf("bench-%04d", seq), Path: fmt.Sprintf("/corpus/b%04d.svf", seq),
				Width: 160, Height: 120, FPS: 25, Frames: 2400,
			})
			for s := 0; s < 8; s++ {
				iv := core.Interval{Start: 300 * s, End: 300 * (s + 1)}
				class := "tennis"
				if s%3 == 2 {
					class = "close-up"
				}
				seg := p.AddSegment(core.Segment{VideoID: vid, Interval: iv, Class: class})
				obj := p.AddObject(core.Object{
					VideoID: vid, SegmentID: seg, Name: "player", Interval: iv,
				})
				for f := 0; f < 24; f++ {
					p.AddState(core.ObjectState{
						ObjectID: obj, Frame: iv.Start + 12*f, Found: true,
						X: float64(10 + f), Y: float64(20 + s), Area: 40 + f,
					})
				}
				for e := 0; e < 4; e++ {
					p.AddEvent(core.Event{
						VideoID: vid, SegmentID: seg, Kind: kinds[(s+e)%len(kinds)],
						ActorID: obj, Interval: core.Interval{Start: iv.Start + 60*e, End: iv.Start + 60*e + 40},
						Confidence: 0.5 + float64(e)/10,
					})
				}
			}
			seq++
		}
		parts = append(parts, p)
		metas = append(metas, core.SegmentMeta{ID: int64(i + 1), Base: base})
		base = p.IDState()
	}
	return parts, metas
}

// freezeAll freezes each builder of parts.
func freezeAll(parts []*core.MetaIndex) []*core.Part {
	out := make([]*core.Part, len(parts))
	for i, p := range parts {
		out[i] = p.Freeze()
	}
	return out
}

// benchColdOpenBlobs serializes the cold-open corpus at 1 and 4 segments,
// once per process.
func benchColdOpenBlobs(b *testing.B) map[string][]byte {
	b.Helper()
	coldOpenOnce.Do(func() {
		coldOpenBlobs = map[string][]byte{}
		for _, nseg := range []int{1, 4} {
			parts, metas := coldCorpusParts(nseg)
			var sf strings.Builder
			if err := core.WriteSegfile(&sf, freezeAll(parts), metas, int64(nseg)); err != nil {
				panic(err)
			}
			coldOpenBlobs[fmt.Sprintf("segfile/segs=%d", nseg)] = []byte(sf.String())
		}
	})
	return coldOpenBlobs
}

// BenchmarkColdOpen measures time-to-first-query readiness of a persisted
// library: the segfile memory-maps and only the manifest is verified
// (O(segments)) — segment rows fault in lazily on first touch. NumSegments
// is answered from the manifest, so the open never hydrates.
func BenchmarkColdOpen(b *testing.B) {
	blobs := benchColdOpenBlobs(b)
	for _, nseg := range []int{1, 4} {
		name := fmt.Sprintf("segfile/segs=%d", nseg)
		data := blobs[name]
		b.Run(name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "lib.db")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, closer, err := core.OpenSegmentedFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if view.NumSegments() != nseg {
					b.Fatalf("segments = %d", view.NumSegments())
				}
				if err := closer.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompact measures a full compaction of the cold-open corpus: its
// four partitions (64 videos, 12,288 tracked states) merged into one, the
// work Library.Compact does per merged run.
func BenchmarkCompact(b *testing.B) {
	parts, metas := coldCorpusParts(4)
	frozen := freezeAll(parts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, _, err := core.MergeSegmentRange(frozen, metas, 0, len(frozen))
		if err != nil {
			b.Fatal(err)
		}
		if merged.Stats().Videos != 64 {
			b.Fatalf("merged %d videos", merged.Stats().Videos)
		}
	}
}

// BenchmarkSegfileSearch is BenchmarkSegmentedSearch over the memory-mapped
// text-index segfile: the same 20k-document corpus searched through
// zero-copy posting views instead of heap-decoded postings. Answers are
// byte-identical to the heap path (checked here once per run; the ir
// segfile tests lock it exhaustively).
func BenchmarkSegfileSearch(b *testing.B) {
	sets := benchSegmentedCorpus(b)
	for _, nseg := range []int{1, 4} {
		segs := sets[nseg]
		b.Run(fmt.Sprintf("segs=%d", nseg), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "text.segf")
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			if err := ir.WriteSegments(f, segs, 42); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			ms, closer, err := ir.OpenSegmentsFile(path, 42)
			if err != nil {
				b.Fatal(err)
			}
			defer closer.Close()
			want, _, err := segs.Search("w0 w1", 10)
			if err != nil {
				b.Fatal(err)
			}
			got, _, err := ms.Search("w0 w1", 10)
			if err != nil {
				b.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				b.Fatal("mapped answers diverge from heap")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ms.Search("w0 w1", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------- query-serving benchmarks

var (
	serveOnce   sync.Once
	serveEngine *dlse.Engine
	serveSite   *webspace.Site
)

// serveFixture builds the serving benchmark fixture once: a mid-size site
// plus a synthetic meta-index (events attached directly, skipping the pixel
// pipeline); the sub-benchmarks wrap it in servers as needed.
func serveFixture(b *testing.B) (*dlse.Engine, *webspace.Site) {
	b.Helper()
	serveOnce.Do(func() {
		site, err := webspace.GenerateAusOpen(webspace.SiteConfig{
			Players: 64, YearStart: 1992, YearEnd: 2001, Seed: 16,
		})
		if err != nil {
			panic(err)
		}
		idx, err := core.NewMetaIndex()
		if err != nil {
			panic(err)
		}
		for _, vid := range site.W.All("Video") {
			vo, _ := site.W.Get(vid)
			id := idx.AddVideo(core.Video{Name: vo.StringAttr("name"), Width: 160, Height: 120, FPS: 25, Frames: 500})
			seg := idx.AddSegment(core.Segment{VideoID: id, Interval: core.Interval{Start: 0, End: 200}, Class: "tennis"})
			idx.AddEvent(core.Event{VideoID: id, SegmentID: seg, Kind: "net-play", Interval: core.Interval{Start: 120, End: 180}, Confidence: 0.9})
		}
		eng, err := dlse.NewSegmented(site, core.SingleSegment(idx.Freeze()), dlse.Options{})
		if err != nil {
			panic(err)
		}
		serveEngine, serveSite = eng, site
	})
	return serveEngine, serveSite
}

// BenchmarkDLSEQuery measures the combined motivating query on the
// planner/operator path: cold (full execution each iteration, no cache)
// versus cached (served from the sharded LRU). The gap is the serving
// layer's win on repeated interactive queries.
func BenchmarkDLSEQuery(b *testing.B) {
	eng, site := serveFixture(b)
	req, err := dlse.ParseRequest(site.W.Schema(), dlse.MotivatingQueryText)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := dlse.Query{Request: &req} // already normalized: no parse per iteration

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SearchAll(ctx, q, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		srv := serve.New(eng, serve.Options{CacheSize: 256})
		if _, _, err := srv.Search(ctx, q, "", 0, false); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, cached, err := srv.Search(ctx, q, "", 0, false); err != nil || !cached {
				b.Fatalf("cached=%t err=%v", cached, err)
			}
		}
	})
	b.Run("cached-parallel", func(b *testing.B) {
		srv := serve.New(eng, serve.Options{CacheSize: 256})
		if _, _, err := srv.Search(ctx, q, "", 0, false); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := srv.Search(ctx, q, "", 0, false); err != nil {
					b.Error(err) // Fatal must not be called off the benchmark goroutine
					return
				}
			}
		})
	})
}

// BenchmarkDLSETextRank isolates the serving path the scoring kernel feeds:
// a combined query whose ranking part dominates (no scene join), so the
// text operator — analysis, dense scoring, merge — is most of the work.
func BenchmarkDLSETextRank(b *testing.B) {
	eng, _ := serveFixture(b)
	q := dlse.Query{Request: &dlse.Request{
		Class: "Player",
		Text:  "champion winner australian open final interview",
		Limit: 10,
	}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchAll(ctx, q, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVecSearch measures the embedding-similarity lane on the serving
// fixture: hash-embed the query, score every document of every page and
// video segment, merge the ranked stream. The answer equals a naive
// score-and-sort (internal/vec's tests lock it); this measures the serving
// cost.
func BenchmarkVecSearch(b *testing.B) {
	eng, _ := serveFixture(b)
	ctx := context.Background()
	q := dlse.Query{Vector: "champion winner australian open final"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridSearch measures the fused lane: the full keyword ranking
// and the full vector ranking executed back to back, combined by
// reciprocal-rank fusion. The delta over BenchmarkVecSearch plus
// BenchmarkDLSETextRank is the fusion overhead itself.
func BenchmarkHybridSearch(b *testing.B) {
	eng, _ := serveFixture(b)
	ctx := context.Background()
	q := dlse.Query{Hybrid: "champion winner australian open final"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	rankedOnce sync.Once
	rankedSite *webspace.Site
	rankedEng  *dlse.Engine
	rankedErr  error
)

// rankedConfig is dlbench's ranked-workload site.
var rankedConfig = webspace.SiteConfig{Players: 8192, YearStart: 1962, YearEnd: 2001, Seed: 16}

// rankedFixture builds, once, dlbench's ranked-workload site and engine:
// the 8,192-player site (8,352 pages) in 4 text segments over an empty
// video library. The quality ledger's judged family ranks on it too.
func rankedFixture(tb testing.TB) (*webspace.Site, *dlse.Engine) {
	tb.Helper()
	rankedOnce.Do(func() {
		rankedSite, rankedErr = webspace.GenerateAusOpen(rankedConfig)
		if rankedErr == nil {
			rankedEng, rankedErr = dlse.NewSegmented(rankedSite, nil, dlse.Options{TextSegments: 4})
		}
	})
	if rankedErr != nil {
		tb.Fatal(rankedErr)
	}
	return rankedSite, rankedEng
}

// BenchmarkRankedPage is the layer-level evidence of depth-bounded ranking:
// one ten-item page per lane, cold (no cache), over the site dlbench's
// ranked workloads serve — 8,192 players, 40 years, 8,352 pages in 4 text
// segments — with a query of their shape, whose first word is on every
// player page. What a lane costs here is what a ranked-miss op costs inside
// the engine; before ranking was bounded by the page it ranked all of them.
// postings/op is the text kernel's PostingsScored for the page.
func BenchmarkRankedPage(b *testing.B) {
	site, eng := rankedFixture(b)
	ctx := context.Background()
	const text = "professional australia smith championship"
	for _, lane := range []struct {
		name string
		q    dlse.Query
	}{
		{"lexical", dlse.Query{Keyword: text}},
		{"vector", dlse.Query{Vector: text}},
		{"hybrid", dlse.Query{Hybrid: text}},
	} {
		b.Run(lane.name, func(b *testing.B) {
			// The postings the text kernel scores for this page, at its own
			// depth, from one untimed explained search (the vector lane
			// scores none): what a pruned kernel would shrink.
			rs, err := eng.Search(ctx, lane.q, dlse.WithLimit(10), dlse.WithExplain())
			if err != nil {
				b.Fatal(err)
			}
			postings := 0
			for _, op := range rs.Explain.Ops {
				if op.Kernel != nil {
					postings += op.Kernel.PostingsScored
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := eng.Search(ctx, lane.q, dlse.WithLimit(10))
				if err != nil || len(rs.Items) != 10 || rs.Total < 8000 {
					b.Fatalf("err %v, %d items of %d", err, len(rs.Items), rs.Total)
				}
			}
			b.ReportMetric(float64(postings), "postings/op")
		})
	}
	// contains-bio is a concept query that reads a text column in full: a
	// contains scan of every player's bio, which decodes each compressed
	// block of the column once.
	b.Run("contains-bio", func(b *testing.B) {
		req, err := dlse.ParseRequest(site.W.Schema(), `find Player where contains(bio, "left-handed")`)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := eng.Search(ctx, dlse.Query{Request: &req}, dlse.WithLimit(10))
			if err != nil || len(rs.Items) != 10 || rs.Total < 1000 {
				b.Fatalf("err %v, %d items of %d", err, len(rs.Items), rs.Total)
			}
		}
	})
	// ranks is the keyword lane's rank lookup, the router's Query.Ranks leg:
	// score the lane (SegScores from ScoreSegments) and place the vector
	// lane's candidates in it (SegScores.Ranks), at the depth each lane of a
	// ten-item hybrid page is ranked to. postings/op is what the scoring
	// reads; the count itself reads none. scored/op is the documents the
	// query scored, which the count walks: nearly every page for the
	// benchmark's query, and the 160 finals and interviews for a selective
	// one (ranks-selective).
	for _, rl := range []struct{ name, text string }{
		{"ranks", text},
		{"ranks-selective", "melbourne crowd childhood dream"},
	} {
		b.Run(rl.name, func(b *testing.B) {
			_, depth := dlse.FuseDepths(10, eng.VecIndex().Docs())
			vec, vecScores, _, _, err := eng.VecIndex().SearchScores(rl.text, depth)
			if err != nil {
				b.Fatal(err)
			}
			vecScores.Release()
			b.ReportAllocs()
			b.ResetTimer()
			var st ir.SearchStats
			for i := 0; i < b.N; i++ {
				var lex ir.SegScores
				if lex, st, err = eng.TextIndex().ScoreSegments(rl.text, nil); err != nil {
					b.Fatal(err)
				}
				if ranks := lex.Ranks(vec); len(ranks) != len(vec) {
					b.Fatalf("%d ranks for %d candidates", len(ranks), len(vec))
				}
				lex.Release()
			}
			b.ReportMetric(float64(st.PostingsScored), "postings/op")
			b.ReportMetric(float64(st.DocsTouched), "scored/op")
		})
	}
}

// BenchmarkEngineWithVideo measures what installing a one-video commit
// costs the engine over dlbench's site: a snapshot that shares both page
// lanes and reads no segment. It is the engine's share of dlbench's
// library.install_ms.
func BenchmarkEngineWithVideo(b *testing.B) {
	_, eng := rankedFixture(b)
	vi := eng.VideoIndex()
	parts, err := vi.Parts()
	if err != nil {
		b.Fatal(err)
	}
	base := parts[0]
	seg := core.NewMetaIndexAt(base.IDState())
	id := seg.AddVideo(core.Video{Name: "committed-final", FPS: 25, Frames: 96})
	seg.AddEvent(core.Event{VideoID: id, Kind: "net-play", Interval: core.Interval{Start: 1, End: 9}, Confidence: 0.5})
	metas := vi.Metas()
	view, err := core.NewSegmentedIndex([]*core.Part{base, seg.Freeze()},
		append(metas, core.SegmentMeta{ID: metas[0].ID + 1, Base: base.IDState()}), vi.Generation()+1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ne := eng.WithVideo(view); ne.VecIndex() != eng.VecIndex() || ne.TextIndex() != eng.TextIndex() {
			b.Fatal("installed engine does not share the page lanes")
		}
	}
}

// BenchmarkSceneJoin measures the event→video scene join across its three
// regimes: the retained row-store reference path (per-event Select +
// VideoByID round-trips), the frozen columnar view built cold (the builders
// frozen afresh, so the first Scenes builds every partition's view), and the
// hot view (pure slice copy). One and four partitions cover the monolithic
// and the scatter shape.
func BenchmarkSceneJoin(b *testing.B) {
	for _, nseg := range []int{1, 4} {
		builders, metas := coldCorpusParts(nseg)
		parts := freezeAll(builders)
		si, err := core.NewSegmentedIndex(parts, metas, 1)
		if err != nil {
			b.Fatal(err)
		}
		kinds := []string{"net-play", "rally", "service", "volley"}
		b.Run(fmt.Sprintf("ref/segs=%d", nseg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range parts {
					if _, err := p.ScenesReference(kinds[i%len(kinds)]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("cold/segs=%d", nseg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cold, err := core.NewSegmentedIndex(freezeAll(builders), metas, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cold.Scenes(kinds[i%len(kinds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("hot/segs=%d", nseg), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := si.Scenes("rally"); err != nil { // warm the view
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := si.Scenes(kinds[i%len(kinds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
