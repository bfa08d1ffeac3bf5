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
// It takes no options: it runs the detector ingest runs,
// shotdet.SegmentAndClassify (the one boundary rule at shotdet.Threshold,
// classes under the video's court-colour vote), so its shots equal those
// of in-process ingest.
//
// Usage:
//
//	segdet < clip.svf
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
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatal("usage: segdet < clip.svf")
	}

	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		log.Fatalf("reading stdin: %v", err)
	}
	frames, _, err := vidfmt.DecodeAll(data)
	if err != nil {
		log.Fatalf("decoding SVF: %v", err)
	}
	shots, err := shotdet.SegmentAndClassify(frame.Frames(frames))
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
