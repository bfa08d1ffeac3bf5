// Package fix is the gate's fixture module: its root package re-exports.
package fix

import "fix/impl"

// Thing and Value are re-exports, exempt from the gate.
type Thing = impl.Thing

var Value = impl.Value

// Used is called by cmd/tool.
func Used() {}

// Reached is called only by ExampleReached, which has an output comment.
func Reached() {}

// Unchecked is called only by ExampleUnchecked, which has none: a finding.
func Unchecked() {}
