package pipeline

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shotdet"
	"repro/internal/synth"
	"repro/internal/vidfmt"
)

// gop is the I-frame interval the test videos are written with
// (vidfmt.WriteFile's default).
const gop = vidfmt.DefaultGOP

// synthFrames renders a synth broadcast.
func synthFrames(t *testing.T, seed int64, shots, minLen, maxLen int) []*frame.Image {
	t.Helper()
	cfg := synth.DefaultConfig(seed)
	cfg.Shots, cfg.MinShotLen, cfg.MaxShotLen = shots, minLen, maxLen
	v, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v.Frames
}

// flatShot is n noisy 160×120 frames of one colour.
func flatShot(c frame.RGB, n int, seed int64) []*frame.Image {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*frame.Image, n)
	for i := range frames {
		im := frame.New(160, 120)
		im.Fill(c)
		im.AddNoise(rng, 4)
		frames[i] = im
	}
	return frames
}

// testVideos are the streaming segment detector's edge cases, each an
// in-memory video.
func testVideos(t *testing.T) map[string][]*frame.Image {
	t.Helper()
	// A court shot, a longer one on a saturated red backdrop, then court
	// again: when the first shot closes the court colour leads the vote, and
	// the backdrop wins it in the end, so the first shot is classified again
	// under the final colour.
	var flip []*frame.Image
	flip = append(flip, synthFrames(t, 41, 1, 14, 14)...)
	flip = append(flip, flatShot(frame.RGB{R: 200, G: 40, B: 40}, 44, 42)...)
	flip = append(flip, synthFrames(t, 43, 1, 14, 14)...)
	return map[string][]*frame.Image{
		// Shots of 8–11 frames: shorter than a GOP, most starting mid-GOP.
		"short-shots": synthFrames(t, 44, 6, 8, 11),
		// Shots of 20–60 frames starting wherever their predecessor ended.
		"mid-gop": synthFrames(t, 45, 5, 20, 60),
		"single":  synthFrames(t, 46, 1, 30, 30),
		// Grey shots: no frame casts a chromatic court-colour vote.
		"no-vote": append(flatShot(frame.RGB{R: 90, G: 90, B: 90}, 20, 47),
			flatShot(frame.RGB{R: 180, G: 180, B: 180}, 20, 48)...),
		"vote-flip": flip,
	}
}

// writeSVF writes frames to dir/name.svf at the default GOP.
func writeSVF(t *testing.T, dir, name string, frames []*frame.Image) string {
	t.Helper()
	path := filepath.Join(dir, name+".svf")
	if err := vidfmt.WriteFile(path, frames, 25, 0); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOne ingests one job and returns its serialized one-video index.
func runOne(t *testing.T, job Job) []byte {
	t.Helper()
	in, err := New(newEngine(t), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(context.Background(), []Job{job}); err != nil {
		t.Fatal(err)
	}
	idx := newIndex(t)
	if _, err := in.MergeInto(idx); err != nil {
		t.Fatal(err)
	}
	return serialized(t, idx)
}

// An SVF job, whose detectors decode frames through the file's index as
// they scan them, indexes exactly what an in-memory job of the same frames
// does, on every edge case of the streaming segment detector.
func TestSVFJobMatchesFramesJob(t *testing.T) {
	dir := t.TempDir()
	for name, frames := range testVideos(t) {
		path := writeSVF(t, dir, name, frames)
		fromFile := runOne(t, SVFJob(path, name))
		inMemory := runOne(t, Job{
			Video: core.Video{
				Name: name, Path: path, Width: frames[0].W, Height: frames[0].H,
				FPS: 25, Frames: len(frames),
			},
			Frames: frames,
		})
		if !bytes.Equal(fromFile, inMemory) {
			t.Errorf("%s: the SVF job's index differs from the in-memory job's", name)
		}
	}
}

// countingReader counts the reads made through it once on is set: after the
// header and index, one read is one frame record decoded.
type countingReader struct {
	io.ReadSeeker
	on    bool
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.on {
		c.reads++
	}
	return c.ReadSeeker.Read(p)
}

// A parse holds at most the longest shot plus one GOP of decoded frames, and
// decodes each frame once for the segment detector plus each tennis shot
// again — from the I-frame that governs its first frame — for the tennis
// detector; only a court-colour vote that changes its winner after a shot
// closed costs that shot's frames once more.
func TestParseDecodesLazily(t *testing.T) {
	engine := newEngine(t)
	for name, frames := range testVideos(t) {
		data, err := vidfmt.EncodeAll(frames, 25, gop)
		if err != nil {
			t.Fatal(err)
		}
		cr := &countingReader{ReadSeeker: bytes.NewReader(data)}
		r, err := vidfmt.OpenReader(cr)
		if err != nil {
			t.Fatal(err)
		}
		cr.on = true
		doc := core.Video{Name: name, Width: 160, Height: 120, FPS: 25, Frames: len(frames)}
		res, err := engine.ProcessSource(doc, r, 0)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.Get("shots")
		shots := v.([]shotdet.Shot)
		longest, tennis, tennisFrames := 0, 0, 0
		for _, s := range shots {
			longest = max(longest, s.Len())
			if s.Class == shotdet.ClassTennis {
				tennis++
				tennisFrames += s.Len()
			}
		}
		if res.Held > longest+gop {
			t.Errorf("%s: held %d decoded frames at once, want <= longest shot %d + GOP %d", name, res.Held, longest, gop)
		}
		bound := len(frames) + tennisFrames + (gop-1)*tennis
		switch {
		case name == "vote-flip" && cr.reads <= bound:
			t.Errorf("%s: %d decodes: the first shot was not classified again", name, cr.reads)
		case name != "vote-flip" && cr.reads > bound:
			t.Errorf("%s: %d decodes, want <= %d frames + %d tennis frames + %d restarts", name, cr.reads, len(frames), tennisFrames, (gop-1)*tennis)
		}
	}
}

// A one-video SVF ingest allocates the frames it holds at once — the
// longest shot plus one GOP, 64 KB each at 160×120 — the decode state and
// one frame record, plus a constant for the detectors' scratch and the index
// (2 MB; about 1.6 MB measured, of which 0.9 MB is the tennis detector's
// whole-frame summed-area table, one per parse): never a buffer per frame
// of the video. Decoding the whole video first, as ingest once did,
// allocated 7.3 MB for this one.
func TestSVFIngestAllocations(t *testing.T) {
	frames := synthFrames(t, 7920, 3, 32, 32)
	path := writeSVF(t, t.TempDir(), "live", frames)
	in, err := New(newEngine(t), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func() Result {
		// One histogram worker: no histogram goroutines in the count.
		res, _ := in.runJob(context.Background(), 0, SVFJob(path, ""), 1)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	ingest() // warm the engine's maps
	const frameBytes, constant = 64 << 10, 2 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := ingest()
	runtime.ReadMemStats(&after)
	bound := uint64(32+gop+2)*frameBytes + constant
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Errorf("one-video SVF ingest (%d frames, %d held): %d bytes allocated, want <= %d", res.Frames, res.Held, grew, bound)
	}
}
