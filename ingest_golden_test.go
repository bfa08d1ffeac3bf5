package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"repro/internal/synth"
	"repro/internal/vidfmt"
)

// ingestGoldenSHA256 is the sha256 of the meta segfile that the cobraindex
// path (SVF decode -> FDE -> per-video index -> MergeInto -> WriteSegfile)
// writes for goldenBroadcasts. It was recorded at commit 63d6348, before
// the decoder, the mask morphology and the tracker were rewritten: same
// frames must yield the same index, byte for byte, at that commit and at
// every later one.
const ingestGoldenSHA256 = "6b8ab848816a0472fe27bdc4925a81a20cd958c05e3163e3179c712dc60fa65b"

// goldenBroadcasts writes the golden corpus into the current directory and
// returns the relative SVF paths (the meta-index stores each video's source
// path, so the paths must not depend on where the test runs): four
// broadcasts in dlbench's shape (3 shots x 32 frames, 160x120) and two with
// the generator's default 20-60-frame shots.
func goldenBroadcasts(t *testing.T) []string {
	t.Helper()
	var paths []string
	for i := 0; i < 6; i++ {
		cfg := synth.DefaultConfig(int64(424200 + i))
		cfg.Shots = 3
		if i < 4 {
			cfg.MinShotLen, cfg.MaxShotLen = 32, 32
		}
		b, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("golden-%02d.svf", i)
		if err := vidfmt.WriteFile(path, b.Frames, b.FPS, 0); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// indexLikeCobraindex runs the paths through the same calls cmd/cobraindex
// makes and returns the segfile bytes it would write.
func indexLikeCobraindex(t *testing.T, paths []string, workers int) []byte {
	t.Helper()
	lib, err := NewLibrary()
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]IngestJob, len(paths))
	for i, path := range paths {
		jobs[i] = IngestJob{Path: path}
	}
	if _, err := lib.IndexBatch(context.Background(), jobs, BatchOptions{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lib.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestGolden locks "same frames -> same index": the golden corpus is
// indexed twice at one worker and twice at four, and all four segfiles must
// hash to the value recorded before the ingest kernels were rewritten. A
// change that moves detector output may re-record the digest only under
// TestQualityLedger's rule: every detector row of testdata/quality.tsv
// equal or better.
func TestIngestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes six broadcasts four times")
	}
	// The index stores each video's path as given, so index relative paths
	// from inside the corpus directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) }) // best effort: the next test would fail loudly
	paths := goldenBroadcasts(t)
	for _, workers := range []int{1, 4} {
		for run := 0; run < 2; run++ {
			sum := sha256.Sum256(indexLikeCobraindex(t, paths, workers))
			if got := hex.EncodeToString(sum[:]); got != ingestGoldenSHA256 {
				t.Errorf("workers=%d run %d: meta segfile sha256 = %s, want %s", workers, run, got, ingestGoldenSHA256)
			}
		}
	}
}
