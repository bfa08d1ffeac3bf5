package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixture is a module with a nested consumer module (bench/) and one planted
// case per rule; see testdata/mod.
const fixture = "testdata/mod"

// TestGateFindsOnlyTestReachedAPI: exported names only tests reach are
// findings, including a method no interface declares, a name only the
// nested module's test calls, a root name only an Example without an output
// comment calls and a non-root name only a checked Example calls. Methods
// that satisfy error, fmt.Stringer, flag.Value or a fixture interface, names
// the nested module's non-test code calls, a root name a checked Example
// calls, the root package's re-exports and an allowlisted name are not.
func TestGateFindsOnlyTestReachedAPI(t *testing.T) {
	problems, err := gate(fixture, []byte("fix/impl.Allowed  oracle: TestPlanted calls it\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fix.Unchecked: only tests reach it",
		"fix/impl.BenchTestOnly: only tests reach it",
		"fix/impl.ExampleOnly: only tests reach it",
		"fix/impl.Sq.Perimeter: only tests reach it",
		"fix/impl.TestOnly: only tests reach it",
	}
	if !reflect.DeepEqual(problems, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// TestAllowlistCannotRot: an entry that claims no finding and a line
// without "<category>: <reason>" in one of the four categories each fail
// the gate.
func TestAllowlistCannotRot(t *testing.T) {
	claimed := "fix/impl.Allowed  oracle: TestPlanted calls it\n" +
		"fix/impl.TestOnly  item 1: claimed\n" +
		"fix/impl.BenchTestOnly  seam: claimed\n" +
		"fix/impl.Sq  item 12: claims its methods\n" +
		"fix/impl.ExampleOnly  ledger: claimed\n" +
		"fix.Unchecked  item 21: claimed\n"
	for _, tc := range []struct {
		name, allow, want string
	}{
		{"clean", claimed, ""},
		{"stale", claimed + "fix/impl.BenchUsed  item 1: no longer a finding\n", "fix/impl.BenchUsed: stale"},
		{"no reason", claimed + "fix/impl.Value  oracle:\n", "allow.txt:7:"},
		{"ledger without reason", claimed + "fix/impl.Value  ledger:\n", "allow.txt:7:"},
		{"no category", claimed + "fix/impl.Value  because tests use it\n", "allow.txt:7:"},
		{"unknown category", claimed + "fix/impl.Value  misc: tests use it\n", "allow.txt:7:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			problems, err := gate(fixture, []byte(tc.allow))
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if len(problems) != 0 {
					t.Fatalf("problems: %q", problems)
				}
				return
			}
			if len(problems) != 1 || !strings.HasPrefix(problems[0], tc.want) {
				t.Fatalf("problems %q, want one starting %q", problems, tc.want)
			}
		})
	}
}

// TestRepositoryGate runs the gate over this repository with its allow.txt,
// so `go test ./...` fails on dead surface.
func TestRepositoryGate(t *testing.T) {
	allow, err := os.ReadFile("allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := gate(filepath.Join("..", ".."), allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("%d problem(s); delete the code, or claim it in scripts/deadapi/allow.txt:\n%s", len(problems), strings.Join(problems, "\n"))
	}
}
