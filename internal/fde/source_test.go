package fde

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/shotdet"
	"repro/internal/vidfmt"
)

// stdinEnv, when set, makes the test binary the black-box segment detector
// (see TestMain): it saves its stdin to the named file and answers as
// cmd/segdet does.
const stdinEnv = "FDE_SEGDET_STDIN"

func TestMain(m *testing.M) {
	if path := os.Getenv(stdinEnv); path != "" {
		if err := recordingSegdet(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func recordingSegdet(path string) error {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	frames, _, err := vidfmt.DecodeAll(data)
	if err != nil {
		return err
	}
	shots, err := shotdet.SegmentAndClassify(frame.Frames(frames))
	if err != nil {
		return err
	}
	_, err = fmt.Print(FormatShotProtocol(shots))
	return err
}

// The black-box segment detector is fed the video frame by frame as the
// source is scanned, one path for in-memory and file sources, and receives
// exactly the bytes it was given when the whole video was encoded up front:
// vidfmt.EncodeAll of the decoded frames at the video's frame rate and the
// default GOP.
func TestBlackBoxStreamsSVF(t *testing.T) {
	v := genVideo(t, 61, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "clip.svf")
	// A GOP other than the default, so the file's bytes are not the input's.
	if err := vidfmt.WriteFile(path, v.Frames, v.FPS, 5); err != nil {
		t.Fatal(err)
	}
	want, err := vidfmt.EncodeAll(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	white, err := NewTennisEngine(DefaultTennisConfig())
	if err != nil {
		t.Fatal(err)
	}
	wres, err := white.Process(coreVideo(v, "bb"), v.Frames)
	if err != nil {
		t.Fatal(err)
	}
	stdin := filepath.Join(dir, "stdin")
	t.Setenv(stdinEnv, stdin)
	cfg := DefaultTennisConfig()
	cfg.SegmentImpl = BlackBoxSegment(os.Args[0])
	black, err := NewTennisEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := vidfmt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, src := range map[string]frame.Source{"frames": frame.Frames(v.Frames), "file": f} {
		os.Remove(stdin)
		bres, err := black.ProcessSource(coreVideo(v, "bb"), src, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(stdin)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: segdet read %d bytes, not the %d of EncodeAll", name, len(got), len(want))
		}
		ws, bs := wres.mustShots(t), bres.mustShots(t)
		if len(ws) != len(bs) {
			t.Fatalf("%s: white-box %d shots, black-box %d", name, len(ws), len(bs))
		}
		for i := range ws {
			if ws[i].Start != bs[i].Start || ws[i].End != bs[i].End || ws[i].Class != bs[i].Class {
				t.Fatalf("%s shot %d: white %v black %v", name, i, ws[i], bs[i])
			}
		}
	}
}

// truncated is an in-memory source that fails at frame at.
type truncated struct {
	frame.Frames
	at int
}

func (s truncated) Scan(start, end int, fn func(int, *frame.Image) error) error {
	if err := s.Frames.Scan(start, min(end, s.at), fn); err != nil || end <= s.at {
		return err
	}
	return errDamaged
}

// A source that fails while the video streams into the black-box detector
// fails the parse with the source's error, beside the detector's own
// failure on the stream cut short.
func TestBlackBoxSourceError(t *testing.T) {
	v := genVideo(t, 63, 3)
	t.Setenv(stdinEnv, filepath.Join(t.TempDir(), "stdin"))
	cfg := DefaultTennisConfig()
	cfg.SegmentImpl = BlackBoxSegment(os.Args[0])
	e, err := NewTennisEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ProcessSource(coreVideo(v, "cut"), truncated{v.Frames, 10}, 0)
	if res != nil || !errors.Is(err, errDamaged) || !strings.Contains(err.Error(), "encoding input") {
		t.Fatalf("parse = %v, %v; want the source's error", res, err)
	}
}

// seekFails is an in-memory source whose scans fail unless they start at
// the first frame: only the segment detector's forward pass succeeds.
type seekFails struct{ frame.Frames }

var errDamaged = errors.New("damaged record")

func (s seekFails) Scan(start, end int, fn func(int, *frame.Image) error) error {
	if start > 0 {
		return errDamaged
	}
	return s.Frames.Scan(start, end, fn)
}

// A source that fails while the tennis detector reads a shot fails the parse
// with the source's error, named after the detector.
func TestTennisPassSourceError(t *testing.T) {
	v := genVideo(t, 62, 4)
	e, err := NewTennisEngine(DefaultTennisConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ProcessSource(coreVideo(v, "damaged"), seekFails{v.Frames}, 0)
	if res != nil || !errors.Is(err, errDamaged) || !strings.Contains(err.Error(), "detector tennis") {
		t.Fatalf("parse = %v, %v; want the tennis detector's source error", res, err)
	}
}
