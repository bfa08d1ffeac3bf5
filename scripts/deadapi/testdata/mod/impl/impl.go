// Package impl plants one case of each gate rule.
package impl

type Thing struct{}

var Value = 1

// TestOnly is called only by a test: a finding.
func TestOnly() {}

// Allowed is called only by a test but claimed by the allowlist.
func Allowed() {}

// ExampleOnly is not in the root package, so ExampleReached's call does
// not count: a finding.
func ExampleOnly() {}

// BenchUsed is called by the nested module's non-test code.
func BenchUsed() {}

// BenchTestOnly is called only by the nested module's test: a finding.
func BenchTestOnly() {}

// E satisfies error, S fmt.Stringer, V flag.Value and Sq Shape.
type (
	E     struct{}
	S     struct{}
	V     struct{}
	Sq    struct{}
	Shape interface{ Area() float64 }
)

func (E) Error() string       { return "e" }
func (S) String() string      { return "s" }
func (*V) Set(string) error   { return nil }
func (*V) String() string     { return "v" }
func (Sq) Area() float64      { return 1 }
func (Sq) Perimeter() float64 { return 4 }
