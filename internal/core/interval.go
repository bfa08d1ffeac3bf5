// Package core implements the COBRA video data model, the paper's primary
// contribution: a layered model of video content distinguishing — in line
// with MPEG-7 — four layers: the raw data, the feature, the object, and the
// event layer. Objects are entities with a prominent spatial dimension
// (e.g. a tennis player), events entities with a prominent temporal
// dimension (e.g. a net-play). The package also provides the meta-index,
// six typed tables of all extracted meta-data, which the Feature Detector
// Engine populates and the digital-library search engine
// queries.
package core

import "fmt"

// Interval is a half-open frame interval [Start, End).
type Interval struct {
	Start, End int
}

// Len returns the interval length in frames.
func (iv Interval) Len() int { return iv.End - iv.Start }

// String renders the interval.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Start, iv.End) }
