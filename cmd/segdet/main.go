// Command segdet is the black-box segment detector: it reads an SVF video
// stream on stdin, segments it into shots via colour-histogram differences,
// classifies each shot, and prints the SHOT line protocol on stdout:
//
//	SHOT <start> <end> <class>
//
// In the original system the segment detector "is implemented externally"
// and driven by the Feature Detector Engine; this binary plays that role
// for fde.BlackBoxSegment.
//
// Usage:
//
//	segdet [-threshold 0.35] [-bins 8] [-adaptive] < clip.svf
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/fde"
	"repro/internal/frame"
	"repro/internal/shotdet"
	"repro/internal/vidfmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("segdet: ")
	var (
		threshold = flag.Float64("threshold", 0.35, "histogram distance threshold")
		bins      = flag.Int("bins", 8, "histogram bins per channel")
		adaptive  = flag.Bool("adaptive", false, "use the adaptive local threshold")
		chi2      = flag.Bool("chi2", false, "use chi-square distance instead of L1")
	)
	flag.Parse()

	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		log.Fatalf("reading stdin: %v", err)
	}
	frames, _, err := vidfmt.DecodeAll(data)
	if err != nil {
		log.Fatalf("decoding SVF: %v", err)
	}
	cfg := shotdet.DefaultConfig()
	cfg.Threshold = *threshold
	cfg.Bins = *bins
	cfg.Adaptive = *adaptive
	if *chi2 {
		cfg.Metric = shotdet.MetricChiSquare
	}
	shots, err := shotdet.SegmentAndClassify(frame.Frames(frames), cfg, shotdet.ClassifierConfig{})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(fde.FormatShotProtocol(shots))
	if _, err := io.Copy(os.Stdout, &buf); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "segdet: %d frames -> %d shots\n", len(frames), len(shots))
}
