package store

import (
	"reflect"
	"sort"
	"testing"
)

// TestSelectRowOrder locks Lookup's output-order contract: row indexes come
// back in ascending row order from the full scan, Lookup's one access path.
func TestSelectRowOrder(t *testing.T) {
	t.Run("full-scan", func(t *testing.T) {
		tbl, err := NewTable(Schema{Name: "evs", Columns: []Column{
			{Name: "kind", Type: TString},
			{Name: "score", Type: TInt},
		}})
		if err != nil {
			t.Fatal(err)
		}
		// Appended so "rally" rows interleave with the rest.
		for _, r := range []struct {
			kind  string
			score int64
		}{
			{"rally", 9}, {"serve", 3}, {"rally", 1}, {"net", 7},
			{"rally", 5}, {"serve", 9}, {"rally", 2},
		} {
			if err := tbl.Append(Str(r.kind), Int(r.score)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := tbl.Lookup("kind", Str("rally"))
		if err != nil {
			t.Fatal(err)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("Lookup returned rows out of order: %v", got)
		}
		if want := []int{0, 2, 4, 6}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup = %v, want %v", got, want)
		}
	})
}
