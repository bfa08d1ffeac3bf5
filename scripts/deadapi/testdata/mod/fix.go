// Package fix is the gate's fixture module: its root package re-exports.
package fix

import "fix/impl"

// Thing and Value are re-exports, exempt from the gate.
type Thing = impl.Thing

var Value = impl.Value

// Used is called by cmd/tool.
func Used() {}
