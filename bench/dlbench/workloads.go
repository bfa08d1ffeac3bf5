package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
)

// Workload names.
const (
	rankedMiss    = "ranked-miss"
	contentMixW   = "content-mix"
	ingestCommit  = "ingest-commit"
	rankedCluster = "ranked-cluster"
)

var workloadNames = []string{rankedMiss, contentMixW, ingestCommit, rankedCluster}

// Daemon settings that are part of every workload's definition.
const (
	textSegments  = 4  // dlserve -text-segments: what a router scatters over
	walCheckpoint = 16 // dlserve -wal-checkpoint (ingest-commit)
	segmentTarget = 16 // dlserve -segment-target (ingest-commit)
	commitsPast   = 8  // commits acknowledged after the last checkpoint
	readerThink   = 20 * time.Millisecond
	// recoveryBudget is the time (seconds) up to which recovery cycles beyond
	// the minimum are added, to at most maxCycles.
	recoveryBudget = 3.0
	maxCycles      = 30
)

// runConfig sizes one run; main holds the timed run's values, and -check
// shrinks everything to a smoke test.
type runConfig struct {
	workload string
	seed     int64
	seconds  int  // measured seconds: split between the solo and loaded phases
	setups   int  // set-ups timed (the last one serves the workload)
	cycles   int  // SIGKILL → restart cycles timed
	smoke    bool // -check: warm up with a tenth of the ops
	binDir   string
	workDir  string
}

// commits is the fixed commit count of ingest-commit for a run length: whole
// checkpoint intervals, about eight commits a second, plus the commitsPast
// that the final SIGKILL leaves for the log to replay.
func (c runConfig) commits() int {
	return max(1, c.seconds/2)*walCheckpoint + commitsPast
}

// fileSet names the files one serving stack runs on.
type fileSet struct {
	dir, meta, text, vec, wal string
}

func newFileSet(dir string) fileSet {
	return fileSet{
		dir: dir, meta: filepath.Join(dir, "meta.segf"), text: filepath.Join(dir, "text.segf"),
		vec: filepath.Join(dir, "vec.segf"), wal: filepath.Join(dir, "wal"),
	}
}

// runner executes one workload end to end.
type runner struct {
	cfg    runConfig
	ps     *procSet
	gen    *loadgen
	corpus *corpus
	oracle *oracle
	files  fileSet
	nodes  []*proc // dlserve processes, in boot order
	want   ingestState
	out    *results
}

// results collects what a run reports.
type results struct {
	metrics map[string]float64
	counts  map[string]int // sample counts behind the metrics, for the report
	notes   []string       // detail lines, printed under the metrics
}

func (r *results) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.counts[name] = n
}

// newRunner prepares a run. corpus may be nil: the run then generates its own
// from the seed.
func newRunner(cfg runConfig, ps *procSet, corpus *corpus) *runner {
	return &runner{
		cfg: cfg, ps: ps, gen: newLoadgen(), corpus: corpus,
		out: &results{metrics: map[string]float64{}, counts: map[string]int{}},
	}
}

// dlserveArgs are the flags of one dlserve node of this workload.
func (r *runner) dlserveArgs() []string {
	args := append([]string{"-addr", "127.0.0.1:0"}, r.corpus.siteFlags()...)
	args = append(args,
		"-meta", r.files.meta, "-text-segments", strconv.Itoa(textSegments),
		"-text-segfile", r.files.text, "-vec-segfile", r.files.vec)
	if r.cfg.workload == ingestCommit {
		args = append(args, "-wal", r.files.wal,
			"-wal-checkpoint", strconv.Itoa(walCheckpoint),
			"-segment-target", strconv.Itoa(segmentTarget))
	}
	return args
}

// boot starts the workload's serving stack on r.files and points the load
// generator at its front door: one dlserve, or two behind a dlrouter with no
// timers of its own (no hedging, no health loop).
func (r *runner) boot() error {
	nodes := 1
	if r.cfg.workload == rankedCluster {
		nodes = 2
	}
	r.nodes = nil
	for n := 0; n < nodes; n++ {
		p, err := r.ps.startDaemon(filepath.Join(r.cfg.binDir, "dlserve"), r.dlserveArgs()...)
		if err != nil {
			return err
		}
		r.nodes = append(r.nodes, p)
	}
	r.gen.base = r.nodes[0].url
	if nodes > 1 {
		p, err := r.ps.startDaemon(filepath.Join(r.cfg.binDir, "dlrouter"),
			"-addr", "127.0.0.1:0", "-node", r.nodes[0].url, "-node", r.nodes[1].url,
			"-replicas", "2", "-hedge-after", "-1ms", "-health-interval", "0")
		if err != nil {
			return err
		}
		r.gen.base = p.url
	}
	return nil
}

// firstAnswer asks the serving stack the paper's example query and returns
// the body; the caller stops its clock, then has the oracle check it.
func (r *runner) firstAnswer() ([]byte, error) {
	status, body, ok := r.gen.get(r.gen.base + "/v2/search?" + motivatingOp().query)
	if !ok || status != http.StatusOK {
		return nil, fmt.Errorf("first answer: status %d: %s", status, bytes.TrimSpace(body))
	}
	return body, nil
}

// checkFirstAnswer verifies a first answer: equal to the library's own, and
// with the scene join non-empty.
func (r *runner) checkFirstAnswer(body []byte) {
	if err := r.oracle.verify(motivatingOp().query, body); err != nil {
		r.gen.fail("%v", err)
	}
	if !hasScenes(body) {
		r.gen.fail("the example query joined no scenes: %.200s", body)
	}
}

// setUp times one full set-up: from the first child exec (cobraindex building
// the meta-index) through the daemons' boot, which builds the text and vector
// segfile caches, to the first answer.
func (r *runner) setUp(k int) (float64, error) {
	r.files = newFileSet(filepath.Join(r.cfg.workDir, fmt.Sprintf("set-%d", k)))
	if err := os.MkdirAll(r.files.dir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	args := append([]string{"-q", "-out", r.files.meta}, r.corpus.base...)
	if err := runTool(filepath.Join(r.cfg.binDir, "cobraindex"), args...); err != nil {
		return 0, err
	}
	if err := r.boot(); err != nil {
		return 0, err
	}
	body, err := r.firstAnswer()
	took := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if r.oracle == nil {
		if r.oracle, err = newOracle(r.corpus, r.files.meta); err != nil {
			return 0, err
		}
	}
	r.checkFirstAnswer(body)
	return took, nil
}

// recover times one crash recovery: every server process is SIGKILLed, then
// restarted on the same (warm) files; the clock runs from the first exec to
// the first answer.
func (r *runner) recover() (float64, error) {
	r.ps.killAll()
	t0 := time.Now()
	if err := r.boot(); err != nil {
		return 0, err
	}
	body, err := r.firstAnswer()
	took := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	r.checkFirstAnswer(body)
	return took, nil
}

// prepare generates the corpus and runs the timed set-ups, leaving the last
// stack serving.
func (r *runner) prepare() error {
	if r.corpus == nil {
		var err error
		if r.corpus, err = generateCorpus(filepath.Join(r.cfg.workDir, "corpus"), r.cfg.seed); err != nil {
			return err
		}
	}
	var took []float64
	for k := 0; k < r.cfg.setups; k++ {
		r.ps.killAll()
		s, err := r.setUp(k)
		if err != nil {
			return err
		}
		took = append(took, s)
	}
	r.out.set("setup_s", median(took), len(took))
	r.out.notes = append(r.out.notes, fmt.Sprintf("set-ups, s: %.3f", took))
	return nil
}

// run executes the timed run and fills r.out.
func (r *runner) run() error {
	if err := r.prepare(); err != nil {
		return err
	}
	if _, err := r.measure(0); err != nil {
		return err
	}
	r.ps.killAll()
	r.storedBytes()
	return nil
}

// measure drives the serving stack over HTTP — the workload's phases, then
// the crash recoveries — and files every statistic under its name. It returns
// the statistics of the phase of one search client, whose medians per class
// the traced run reconciles its spans with; ingest-commit has such a phase
// only when readerSolo is not zero (its reader otherwise runs beside commits
// that empty the cache under it). The stack is left serving.
func (r *runner) measure(readerSolo time.Duration) (solo phaseStats, err error) {
	// The servers' resident set is read every rssEvery from warm-up to the
	// last measured op.
	stop, rss := make(chan struct{}), make(chan []float64)
	go func() { rss <- r.ps.sampleRSS(stop) }()
	if r.cfg.workload == ingestCommit {
		solo, err = r.runIngest(readerSolo)
	} else {
		solo = r.runSearch()
	}
	close(stop)
	mb := <-rss
	if err != nil {
		return solo, err
	}
	// Memory is the 90th percentile of the readings, not their peak: the
	// high-water mark of a garbage-collected heap depends on where in an
	// allocation burst a collection happened to start, and six ingest-commit
	// runs read a peak of 84.0-89.2 MB where this reads 78.0-80.1 MB.
	r.out.set("rss_p90_mb", quantileOf(mb, 90), len(mb))
	r.out.notes = append(r.out.notes, fmt.Sprintf("resident set of the %d server processes, MB: median %.1f, peak (VmHWM) %.1f",
		r.ps.live(), median(mb), r.ps.peakRSSMB()))
	// A restart that replays nothing takes under 100 ms, and a few
	// milliseconds of the host's interference are a large share of it: cheap
	// recoveries are repeated more often than dear ones, until they have
	// taken recoveryBudget in all, so that the quiet decile has an
	// undisturbed cycle to find.
	var took []float64
	for k := 0; k < r.cfg.cycles || (!r.cfg.smoke && k < maxCycles && sum(took) < recoveryBudget); k++ {
		s, err := r.recover()
		if err != nil {
			return solo, err
		}
		if r.cfg.workload == ingestCommit {
			r.checkRecovered()
		}
		took = append(took, s)
	}
	r.out.set("http.recovery_s", quantileOf(took, quietDecile), len(took))
	r.out.notes = append(r.out.notes, fmt.Sprintf("recoveries, s: %.3f", took))
	return solo, nil
}

// streamOf builds the workload's op stream and says how many untimed ops
// bring the system to the state the phases should measure: the result cache
// full and evicting (ranked-miss), at its steady hit ratio (content-mix),
// holding the reader's whole slice (ingest-commit); a router caches nothing.
func (r *runner) streamOf() (st stream, warmOps int) {
	switch r.cfg.workload {
	case contentMixW:
		st, warmOps = newContentMix(r.cfg.seed), 4000
	case ingestCommit:
		st, warmOps = newReaderSlice(newContentMix(r.cfg.seed)), 64
	case rankedCluster:
		st, warmOps = newRankedStream(r.corpus), 100
	default:
		st, warmOps = newRankedStream(r.corpus), 1100
	}
	if r.cfg.smoke {
		warmOps /= 10
	}
	return st, warmOps
}

// runSearch is the body of the three search workloads: warm-up, a solo phase
// of one client for the latencies, a loaded phase of two for throughput; CPU
// per op is taken over both.
func (r *runner) runSearch() (solo phaseStats) {
	st, warmOps := r.streamOf()
	half := time.Duration(r.cfg.seconds) * time.Second / 2
	r.gen.warm(st, warmOps)
	self0 := selfCPUMs()
	solo = r.gen.phase(st, 1, half, r.ps.cpuMs, 0)
	loaded := r.gen.phase(st, maxConns, half, r.ps.cpuMs, 0)
	r.clientShare(selfCPUMs()-self0, solo.cpuMs+loaded.cpuMs, solo.ops+loaded.ops)
	r.out.set("http.quiet_latency_ms", solo.quietMs, solo.ops)
	r.out.set("http.latency_p50_ms", solo.p50, solo.ops)
	r.out.set("http.latency_p90_ms", solo.p90, solo.ops)
	r.out.set("http.read_beside_p50_ms", solo.p50, solo.ops) // no writer runs beside these reads
	r.out.set("http.quiet_throughput_ops_per_s", quietThroughput(maxConns, loaded), loaded.ops)
	r.out.set("http.throughput_ops_per_s", loaded.opsPerS, loaded.ops)
	r.out.set("http.cpu_ms_per_op", (solo.cpuMs+loaded.cpuMs)/float64(solo.ops+loaded.ops), solo.ops+loaded.ops)
	r.out.notes = append(r.out.notes,
		fmt.Sprintf("solo, %d ops: %.5g ops/s, %.4g cpu ms/op%s",
			solo.ops, solo.opsPerS, solo.cpuMs/float64(solo.ops), classNote(solo)),
		fmt.Sprintf("loaded, %d ops: p50 %.4g ms, p90 %.4g ms, quiet latency %.4g ms, %.4g cpu ms/op%s",
			loaded.ops, loaded.p50, loaded.p90, loaded.quietMs, loaded.cpuMs/float64(loaded.ops), classNote(loaded)),
		fmt.Sprintf("responses served from the result cache: %d of %d",
			r.gen.cacheHits.Load(), r.gen.completed.Load()))
	r.verifySamples()
	return solo
}

// clientShare files the load generator's share of the CPU that it and the
// servers used while it generated load: how much of a result is the
// harness's own.
func (r *runner) clientShare(selfMs, serverMs float64, ops int) {
	r.out.set("loadgen.client_cpu_share", selfMs/(selfMs+serverMs), ops)
}

// selfCPUMs is the user+system CPU this process has used.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// quietThroughput is the rate at which a phase's closed loops complete ops
// in the tenth of the phase the host disturbed least: a client without think
// time completes one op per latency, so n clients complete n per quiet mean
// latency.
func quietThroughput(clients int, st phaseStats) float64 {
	return float64(clients) * 1000 / st.quietMs
}

// classNote renders a phase's median per class of operation: per lane of a
// ranked stream, per cache hit and miss of a pooled one.
func classNote(st phaseStats) string {
	note := ""
	for class, name := range classNames { // in this order; class -1 is the whole phase
		if p50, ok := st.classP50[class]; ok {
			note += fmt.Sprintf("; %s p50 %.4g ms", name, p50)
		}
	}
	return note
}

// verifySamples compares every kept response with the in-process library's
// answer and, behind a router, with a single node's.
func (r *runner) verifySamples() {
	for _, k := range r.gen.sampled {
		if err := r.oracle.verify(k.op.query, k.body); err != nil {
			r.gen.fail("%v", err)
			continue
		}
		if r.cfg.workload != rankedCluster {
			continue
		}
		status, body, ok := r.gen.get(r.nodes[0].url + "/v2/search?" + k.op.query)
		if !ok || status != http.StatusOK {
			r.gen.fail("node answer for %s: status %d", k.op.query, status)
			continue
		}
		viaRouter, _ := normalize(k.body)
		direct, _ := normalize(body)
		if viaRouter != direct {
			r.gen.fail("%s: router and single node disagree", k.op.query)
		}
	}
	r.out.counts["verified"] = len(r.gen.sampled)
}

// eventKinds are the scene kinds the tennis detectors produce.
var eventKinds = []string{"net-play", "rally", "service"}

// sceneTotal asks the serving stack how many scenes of a kind it holds.
func (r *runner) sceneTotal(kind string) int {
	status, body, ok := r.gen.get(r.gen.base + "/v2/search?" + url.Values{"kind": {kind}, "limit": {"1"}}.Encode())
	var resp searchResp
	if !ok || status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
		r.gen.fail("scene total of %q: status %d", kind, status)
		return -1
	}
	return resp.Total
}

// poolSceneCounts indexes each distinct pool broadcast once, in process, and
// returns its scene count per event kind: what a commit of it must add.
func (r *runner) poolSceneCounts() ([]map[string]int, error) {
	counts := make([]map[string]int, len(r.corpus.poolSrc))
	for i, path := range r.corpus.poolSrc {
		lib, err := repro.NewLibrary()
		if err != nil {
			return nil, err
		}
		if _, err := lib.IndexBatch(context.Background(), []repro.IngestJob{{Path: path}}, repro.BatchOptions{}); err != nil {
			return nil, err
		}
		counts[i] = map[string]int{}
		for _, kind := range eventKinds {
			scenes, err := lib.Scenes(kind)
			if err != nil {
				return nil, err
			}
			counts[i][kind] = len(scenes)
		}
	}
	return counts, nil
}

// ingestState is what ingest-commit must find after its commits, and again
// after every recovery.
type ingestState struct {
	videos int
	scenes map[string]int
}

// runIngest is the body of ingest-commit: one committer sends a fixed number
// of one-video commits, each acknowledged only after its WAL record is
// fsynced; beside it one reader cycles a fixed slice of content-mix with a
// think time. The daemon is SIGKILLed right after the last acknowledgement
// (by the first recovery cycle).
func (r *runner) runIngest(readerSolo time.Duration) (solo phaseStats, err error) {
	n := r.cfg.commits()
	paths, src, err := r.corpus.commitPool(n)
	if err != nil {
		return solo, err
	}
	perSource, err := r.poolSceneCounts()
	if err != nil {
		return solo, err
	}
	r.want = ingestState{videos: baseVideos + n, scenes: map[string]int{}}
	for _, kind := range eventKinds {
		r.want.scenes[kind] = r.sceneTotal(kind)
		for _, s := range src {
			r.want.scenes[kind] += perSource[s][kind]
		}
	}

	st, warmOps := r.streamOf()
	r.gen.warm(st, warmOps)
	if readerSolo > 0 {
		solo = r.gen.phase(st, 1, readerSolo, r.ps.cpuMs, 0)
		r.out.notes = append(r.out.notes, fmt.Sprintf("the reader alone, %d ops%s", solo.ops, classNote(solo)))
		r.verifySamples() // before any commit: scene totals still equal the library's
	}
	r.gen.growing = true
	self0 := selfCPUMs()
	commits, reads := r.commitBeside(st, paths, src)
	r.clientShare(selfCPUMs()-self0, commits.cpuMs, commits.ops+len(reads))

	r.out.set("http.quiet_latency_ms", commits.quietMs, commits.ops)
	r.out.set("http.latency_p50_ms", commits.p50, commits.ops)
	r.out.set("http.latency_p90_ms", commits.p90, commits.ops)
	r.out.set("http.read_beside_p50_ms", median(reads), len(reads))
	r.out.set("http.quiet_throughput_ops_per_s", quietThroughput(1, commits), commits.ops)
	r.out.set("http.throughput_ops_per_s", commits.opsPerS, commits.ops)
	r.out.set("http.cpu_ms_per_op", commits.cpuMs/float64(commits.ops), commits.ops)
	r.checkIngested()
	r.verifyReads()
	return solo, nil
}

// commitBeside sends one-video commits in a closed loop, each acknowledged
// only after its WAL record is fsynced; beside the committer one reader
// cycles the stream with a think time. It returns the commits' statistics
// and the reader's latencies in ms. A commit's class is the pool broadcast it
// is a copy of (src): broadcasts differ in what there is to detect in them,
// so the commits of one broadcast are the equal work a quiet latency needs.
func (r *runner) commitBeside(st stream, paths []string, src []int) (phaseStats, []float64) {
	var stop atomic.Bool
	var reads []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			i := int(r.gen.next.Add(1) - 1)
			if ms, _, ok := r.gen.search(i, st.at(i)); ok {
				reads = append(reads, ms)
			}
			time.Sleep(readerThink)
		}
	}()

	commits := make([]sample, 0, len(paths))
	from := mark{at: time.Now(), cpuMs: r.ps.cpuMs()}
	for i, p := range paths {
		body, _ := json.Marshal(map[string]any{"paths": []string{p}, "token": fmt.Sprintf("c-%d-%d", r.cfg.seed, i)})
		r.gen.attempted.Add(1)
		c0 := time.Now()
		resp, err := r.gen.http.Post(r.gen.base+"/v2/commit", "application/json", bytes.NewReader(body))
		if err != nil {
			r.gen.fail("commit %d: %v", i, err)
			continue
		}
		var info struct {
			Videos int `json:"videos"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		done := time.Now()
		commits = append(commits, sample{done: done, ms: float64(done.Sub(c0)) / float64(time.Millisecond), class: len(classNames) + src[i]})
		if resp.StatusCode != http.StatusOK || decErr != nil || info.Videos != baseVideos+i+1 {
			r.gen.fail("commit %d: status %d, videos %d, want %d", i, resp.StatusCode, info.Videos, baseVideos+i+1)
		}
	}
	// The last commit completed before this instant, so it is inside the phase.
	to := mark{at: time.Now(), cpuMs: r.ps.cpuMs()}
	stop.Store(true)
	wg.Wait()
	return statsOf(from, to, commits, nil), reads
}

// verifyReads compares the reader's kept responses with the in-process
// library. Combined queries reach scenes only through finals videos, which
// the fresh-named commits never touch, so their answers hold at any moment
// of the commit stream; scene lookups grow with it and are checked by total.
// The kept ops must span several distinct queries of the reader's cycle.
func (r *runner) verifyReads() {
	distinct, compared := map[string]bool{}, 0
	for _, k := range r.gen.sampled {
		if k.op.query[0] != 'q' {
			continue
		}
		distinct[k.op.query] = true
		compared++
		if err := r.oracle.verify(k.op.query, k.body); err != nil {
			r.gen.fail("%v", err)
		}
	}
	if len(distinct) < 2 && !r.cfg.smoke {
		r.gen.fail("only %d distinct combined queries of the reader were compared with the library", len(distinct))
	}
	r.out.counts["verified"] = compared
}

// checkIngested asserts that every acknowledged commit is visible.
func (r *runner) checkIngested() {
	status, body, ok := r.gen.get(r.gen.base + "/healthz")
	var h struct {
		Videos int `json:"videos"`
	}
	if !ok || status != http.StatusOK || json.Unmarshal(body, &h) != nil || h.Videos != r.want.videos {
		r.gen.fail("healthz reports %d videos, want %d", h.Videos, r.want.videos)
	}
	for _, kind := range eventKinds {
		if got := r.sceneTotal(kind); got != r.want.scenes[kind] {
			r.gen.fail("%d %s scenes visible, want %d", got, kind, r.want.scenes[kind])
		}
	}
}

var recoveredRE = regexp.MustCompile(`(?m)^dl_wal_recovered_total (\d+)$`)

// checkRecovered asserts that a restart replayed exactly the commits
// acknowledged after the last checkpoint, and lost none.
func (r *runner) checkRecovered() {
	r.checkIngested()
	status, body, ok := r.gen.get(r.gen.base + "/metrics")
	m := recoveredRE.FindSubmatch(body)
	if !ok || status != http.StatusOK || m == nil || string(m[1]) != strconv.Itoa(commitsPast) {
		r.gen.fail("restart did not replay exactly %d WAL records: %q", commitsPast, m)
	}
}

// storedBytes reports bytes stored (meta-index, text and vector segfiles,
// WAL directory) per byte of input (SVF video and page text).
func (r *runner) storedBytes() {
	var stored int64
	for _, p := range []string{r.files.meta, r.files.text, r.files.vec} {
		if info, err := os.Stat(p); err == nil {
			stored += info.Size()
		}
	}
	_ = filepath.WalkDir(r.files.wal, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				stored += info.Size()
			}
		}
		return nil // a workload without a WAL has no such directory
	})
	videos := int64(baseVideos)
	if r.cfg.workload == ingestCommit {
		videos += int64(r.cfg.commits())
	}
	input := videos*r.corpus.svfBytes + r.corpus.pageBytes
	r.out.set("stored_per_input_byte", float64(stored)/float64(input), 1)
	r.out.notes = append(r.out.notes, fmt.Sprintf("%d bytes stored for %d bytes of input", stored, input))
}
