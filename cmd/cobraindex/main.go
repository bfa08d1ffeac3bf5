// Command cobraindex runs the tennis Feature Detector Engine over a corpus
// of SVF videos, populating the COBRA meta-index and persisting it as a
// memory-mappable segfile. It is a client of the library's batch ingest
// (repro.Library.IndexBatch, then SaveIndex): the videos fan out over a
// worker pool, each worker parsing one video at a time into its own index,
// and the per-video indexes are merged in argument order, so the output is
// byte-identical at any worker count. A worker opens its video's SVF file
// and the detectors decode frames through its frame index as they scan
// them, holding at most the current shot plus one GOP (the codec's I-frame
// interval) ahead, so memory per worker is O(longest shot), not O(video):
// the summary reports the most decoded frames one parse held. With -segdet
// the segment detector runs as an external program (cmd/segdet), and the
// index is the same.
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
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/internal/fsx"
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
	var lib *repro.Library
	if *segdet != "" {
		lib, err = repro.NewBlackBoxLibrary(*segdet)
	} else {
		lib, err = repro.NewLibrary()
	}
	if err != nil {
		log.Fatal(err)
	}

	jobs := make([]repro.IngestJob, len(paths))
	for i, path := range paths {
		jobs[i] = repro.IngestJob{Path: path}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	results, err := lib.IndexBatch(ctx, jobs, repro.BatchOptions{
		Workers: *workers,
		OnProgress: func(p repro.BatchProgress) {
			if *quiet {
				return
			}
			if p.Err != nil {
				fmt.Printf("[%d/%d] %s: %v\n", p.Done, p.Total, p.Name, p.Err)
				return
			}
			fmt.Printf("[%d/%d] %s: %d frames indexed in %v\n",
				p.Done, p.Total, p.Name, p.Frames, p.Duration.Round(time.Millisecond))
		},
	})
	if err != nil {
		for i, r := range results {
			if r.Err != nil {
				log.Printf("%s: %v", paths[i], r.Err)
			}
		}
		log.Fatal(err)
	}
	wall := time.Since(start)

	st := lib.View().Stats()
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
	stats := lib.DetectorStats()
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
	if err := fsx.WriteAtomic(fsx.OS, *out, lib.SaveIndex); err != nil {
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
