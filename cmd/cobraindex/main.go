// Command cobraindex runs the tennis Feature Detector Engine over a corpus
// of SVF videos, populating the COBRA meta-index and persisting it as a
// memory-mappable segfile. Videos are processed by a worker pool: each
// worker parses one video at a time into its own index, and the per-video
// indexes are merged in argument order — the output is byte-identical at
// any worker count. A worker opens its video's SVF file and the detectors
// decode frames through its frame index as they scan them, holding at most
// the current shot plus one GOP (the codec's I-frame interval) ahead, so
// memory per worker is O(longest shot), not O(video): the summary reports
// the most decoded frames one parse held.
//
// Usage:
//
//	cobraindex -out meta.db corpus/*.svf
//	cobraindex -workers 8 -out meta.db corpus/       # whole directory
//	cobraindex -segdet ./segdet -out meta.db corpus/*.svf   # black-box mode
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fde"
	"repro/internal/fsx"
	"repro/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cobraindex: ")
	var (
		out     = flag.String("out", "meta.db", "output meta-index file")
		segdet  = flag.String("segdet", "", "path to an external segment detector binary (black-box mode)")
		workers = flag.Int("workers", 0, "concurrent videos (0 = GOMAXPROCS)")
		quiet   = flag.Bool("q", false, "suppress per-video progress")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: cobraindex [-out meta.db] [-workers N] [-segdet BIN] video.svf|dir...")
	}
	paths, err := expandArgs(flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	if len(paths) == 0 {
		log.Fatal("no .svf files found")
	}
	cfg := fde.DefaultTennisConfig()
	if *segdet != "" {
		cfg.SegmentImpl = fde.BlackBoxSegment(*segdet)
	}
	if pipeline.InFlight(*workers, len(paths)) > 1 {
		// The video fan-out saturates the CPUs; avoid nested per-frame
		// histogram pools inside each parse.
		cfg.Workers = 1
	}
	engine, err := fde.NewTennisEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}

	jobs := make([]pipeline.Job, len(paths))
	for i, path := range paths {
		jobs[i] = pipeline.SVFJob(path, "")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	in, err := pipeline.New(engine, pipeline.Config{
		Workers: *workers,
		OnProgress: func(p pipeline.Progress) {
			if *quiet {
				return
			}
			if p.Result.Err != nil {
				fmt.Printf("[%d/%d] %s: %v\n", p.Done, p.Total, p.Result.Name, p.Result.Err)
				return
			}
			fmt.Printf("[%d/%d] %s: %d frames indexed in %v\n",
				p.Done, p.Total, p.Result.Name, p.Result.Frames,
				p.Result.Duration.Round(time.Millisecond))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	results, runErr := in.Run(ctx, jobs)
	if runErr != nil {
		for _, r := range results {
			if r.Err != nil {
				log.Printf("%s: %v", paths[r.Seq], r.Err)
			}
		}
		log.Fatal(runErr)
	}
	wall := time.Since(start)

	idx, err := core.NewMetaIndex()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := in.MergeInto(idx); err != nil {
		log.Fatal(err)
	}
	st := idx.Stats()
	var busy time.Duration
	frames, held := 0, 0
	for _, r := range results {
		busy += r.Duration
		frames += r.Frames
		held = max(held, r.Held)
	}
	fmt.Printf("meta-index: %d videos, %d segments, %d objects, %d states, %d events\n",
		st.Videos, st.Segments, st.Objects, st.States, st.Events)
	fmt.Printf("indexed %d frames in %v wall (%.1f frames/s, %.2fx parallel speed-up)\n",
		frames, wall.Round(time.Millisecond),
		float64(frames)/wall.Seconds(), float64(busy)/float64(wall))
	fmt.Printf("at most %d decoded frames held by one parse\n", held)
	fmt.Println("detector statistics:")
	stats := engine.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := stats[name]
		fmt.Printf("  %-10s runs=%d total=%v errors=%d\n", name, s.Runs, s.Total.Round(time.Millisecond), s.Errors)
	}
	// The write is atomic (temp + fsync + rename), so a crash mid-write
	// cannot leave a torn index at -out.
	err = fsx.WriteAtomic(fsx.OS, *out, func(w io.Writer) error {
		return core.WriteSegfile(w, []*core.Part{idx.Freeze()}, []core.SegmentMeta{{ID: 1}}, 0)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (segfile)\n", *out)
}

// expandArgs resolves the positional arguments: directories expand to the
// sorted .svf files they contain, other paths pass through unchanged.
func expandArgs(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.svf"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		paths = append(paths, matches...)
	}
	return paths, nil
}
