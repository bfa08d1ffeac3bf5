package fde

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/frame"
	"repro/internal/shotdet"
	"repro/internal/vidfmt"
)

// BlackBoxSegment adapts an external segment-detector program into a
// detector implementation, preserving the paper's architecture where the
// segment detector "is implemented externally" and the FDE merely triggers
// it. The program receives the video as an SVF stream on stdin — encoded
// frame by frame as the source is scanned, so the video is never held whole
// — and must print one line per shot:
//
//	SHOT <start> <end> <class>
//
// with class one of tennis, close-up, audience, other. Lines starting with
// '#' are ignored. cmd/segdet implements this protocol.
func BlackBoxSegment(path string, args ...string) Impl {
	return func(ctx *Context) error {
		cmd := exec.Command(path, args...)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return fmt.Errorf("blackbox segdet %s: %w", path, err)
		}
		var out, errb bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &errb
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("blackbox segdet %s: %w", path, err)
		}
		encErr := encodeSVF(stdin, ctx.Frames, ctx.Video.FPS)
		stdin.Close() // end of input; a failed encode leaves segdet a truncated stream
		if encErr != nil {
			encErr = fmt.Errorf("blackbox segdet: encoding input: %w", encErr)
		}
		if err := cmd.Wait(); err != nil {
			return errors.Join(encErr, fmt.Errorf("blackbox segdet %s: %w (stderr: %s)", path, err, errb.String()))
		}
		if encErr != nil {
			return encErr
		}
		shots, err := ParseShotProtocol(out.String())
		if err != nil {
			return fmt.Errorf("blackbox segdet %s: %w", path, err)
		}
		classes := make([]string, len(shots))
		for i, s := range shots {
			classes[i] = s.Class.String()
		}
		ctx.Set("shots", shots)
		ctx.Set("classes", classes)
		return nil
	}
}

// encodeSVF writes src to w as one SVF stream at the default GOP — the bytes
// vidfmt.EncodeAll gives for the same frames — encoding each frame as the
// source hands it out.
func encodeSVF(w io.Writer, src frame.Source, fps int) error {
	var enc *vidfmt.Writer
	err := src.Scan(0, src.Len(), func(_ int, im *frame.Image) error {
		if enc == nil {
			var err error
			if enc, err = vidfmt.NewWriter(w, im.W, im.H, fps, 0); err != nil {
				return err
			}
		}
		return enc.WriteFrame(im)
	})
	switch {
	case err != nil:
		return err
	case enc == nil:
		return errors.New("vidfmt: no frames to encode")
	}
	return enc.Close()
}

// ParseShotProtocol parses the SHOT line protocol produced by black-box
// segment detectors.
func ParseShotProtocol(s string) ([]shotdet.Shot, error) {
	var shots []shotdet.Shot
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "SHOT" {
			return nil, fmt.Errorf("bad protocol line %q", line)
		}
		start, err1 := strconv.Atoi(fields[1])
		end, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || start < 0 || end <= start {
			return nil, fmt.Errorf("bad shot range in %q", line)
		}
		class, err := shotdet.ParseClass(fields[3])
		if err != nil {
			return nil, fmt.Errorf("bad class in %q: %w", line, err)
		}
		shots = append(shots, shotdet.Shot{Start: start, End: end, Class: class})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(shots) == 0 {
		return nil, fmt.Errorf("black-box detector produced no shots")
	}
	return shots, nil
}

// FormatShotProtocol renders shots in the SHOT line protocol; the inverse
// of ParseShotProtocol, used by cmd/segdet.
func FormatShotProtocol(shots []shotdet.Shot) string {
	var b strings.Builder
	for _, s := range shots {
		fmt.Fprintf(&b, "SHOT %d %d %s\n", s.Start, s.End, s.Class)
	}
	return b.String()
}
