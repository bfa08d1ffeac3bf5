// Command dlbench is the repository's benchmark: it generates a corpus from
// a seed, starts the real cobraindex, dlserve and dlrouter binaries as child
// processes, drives them over HTTP in closed loops from this one process,
// checks the answers against the library used in process, and prints every
// metric by name with its unit. See bench/README.md.
//
// Usage (bench/run.sh builds the binaries and passes -bin):
//
//	dlbench -bin DIR -workload ranked-miss -seed 1 -seconds 12 -trace 0
//	dlbench -bin DIR -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"
)

// Units of the end-to-end metrics, as BENCHMARK.json declares them.
var endToEndUnits = map[string]string{
	"setup_s": "s", "stored_per_input_byte": "ratio", "rss_p90_mb": "MB",
}

func main() {
	var (
		workload = flag.String("workload", "", "one of ranked-miss, content-mix, ingest-commit, ranked-cluster")
		seed     = flag.Int64("seed", 1, "seed of every generator: site, broadcasts, query streams, commit order")
		seconds  = flag.Int("seconds", 12, "seconds measured")
		trace    = flag.Int("trace", 0, "1: the traced in-process run that prints the per-layer metrics")
		check    = flag.Bool("check", false, "smoke-test all four workloads briefly and exit")
		binDir   = flag.String("bin", "", "directory holding the cobraindex, dlserve and dlrouter binaries")
		workRoot = flag.String("work", ".bench_build", "directory for this run's files (removed on exit)")
	)
	flag.Parse()
	if *binDir == "" {
		fatal("dlbench: -bin is required (bench/run.sh sets it)")
	}
	abs, err := filepath.Abs(*binDir)
	if err != nil {
		fatal("dlbench: %v", err)
	}
	work, err := filepath.Abs(*workRoot)
	if err != nil {
		fatal("dlbench: %v", err)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds,
		setups: 3, cycles: 7,
		binDir: abs,
	}
	// One place ends every child and removes every directory of this
	// process, on return and on a signal alike.
	ps := &procSet{}
	var mu sync.Mutex
	var dirs []string
	cleanup := func() {
		ps.killAll()
		mu.Lock()
		defer mu.Unlock()
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	// Directory names hold no process id: file paths are stored in the
	// meta-index and the WAL, so their length must repeat for byte counts to.
	workDir := func(name string) string {
		d := filepath.Join(work, fmt.Sprintf("run-%s-%d", name, *seed))
		os.RemoveAll(d) // left behind by a run that was killed outright
		mu.Lock()
		dirs = append(dirs, d)
		mu.Unlock()
		return d
	}

	ok := true
	switch {
	case *check:
		// The smoke test: all four workloads, briefly, on one shared corpus.
		cfg.seconds, cfg.setups, cfg.cycles, cfg.smoke = 2, 1, 1, true
		shared, err := generateCorpus(workDir("check"), *seed)
		if err != nil {
			cleanup()
			fatal("dlbench: %v", err)
		}
		for _, w := range workloadNames {
			cfg.workload, cfg.workDir = w, workDir(w)
			ok = execute(newRunner(cfg, ps, shared), false) && ok
		}
	case !slices.Contains(workloadNames, *workload):
		fatal("dlbench: unknown workload %q (want one of %v)", *workload, workloadNames)
	case *seconds < 1:
		fatal("dlbench: -seconds must be at least 1")
	default:
		cfg.workDir = workDir(*workload)
		ok = execute(newRunner(cfg, ps, nil), *trace == 1)
	}
	cleanup()
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// execute runs one workload and prints its report. It reports whether the
// run was correct.
func execute(r *runner, traced bool) bool {
	defer r.ps.killAll()
	var err error
	units := endToEndUnits
	if traced {
		units, err = r.runTraced()
	} else {
		err = r.run()
	}
	if err != nil {
		// Without a result line the run counts as failed outright.
		fmt.Fprintf(os.Stderr, "dlbench: %s: %v\n", r.cfg.workload, err)
		return false
	}
	return report(r, units)
}

// report prints every metric by name with its unit and sample count, then
// the one-line JSON result the driver reads.
func report(r *runner, units map[string]string) bool {
	// Exactly the metrics of the run's kind: the traced run also times a
	// set-up, but that is an end-to-end metric and not reported there.
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d\n", r.cfg.workload, r.cfg.seed)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, name := range names {
		v := r.out.metrics[name]
		fmt.Printf("  %-34s %14.6g %-6s (n=%d)\n", name, v, units[name], r.out.counts[name])
		metrics[name] = metric{Value: v, Unit: units[name]}
	}
	// What the run measured besides, and which kind of run reports it: the
	// statistics over HTTP carry no bound and belong to the traced run's
	// result, set-up time and memory to the timed run's.
	var others []string
	for name := range r.out.metrics {
		if _, ok := units[name]; !ok {
			others = append(others, name)
		}
	}
	sort.Strings(others)
	for _, name := range others {
		unit, where := layerUnits[name], "no bound; the traced run reports it"
		if unit == "" {
			unit, where = endToEndUnits[name], "the timed run reports it"
		}
		fmt.Printf("  %-34s %14.6g %-6s (n=%d) — %s\n", name, r.out.metrics[name], unit, r.out.counts[name], where)
	}
	for _, note := range r.out.notes {
		fmt.Printf("  %s\n", note)
	}
	attempted, failed := r.gen.attempted.Load(), r.gen.failed.Load()
	fmt.Printf("  attempted %d, failed %d, responses compared item by item %d\n",
		attempted, failed, r.out.counts["verified"])
	for _, f := range r.gen.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlbench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return failed == 0
}
