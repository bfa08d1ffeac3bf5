package ir

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenizeUnicode(t *testing.T) {
	got := tokens("Müller très bien 東京 2024!")
	want := []string{"müller", "très", "bien", "東京", "2024"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestAnalyzeEmptyAndStopOnly(t *testing.T) {
	if got := Analyze(""); len(got) != 0 {
		t.Fatalf("empty analyze = %v", got)
	}
	if got := Analyze("the and of"); len(got) != 0 {
		t.Fatalf("stopword analyze = %v", got)
	}
}

// Property: stemming is idempotent over tokenized words — the index and
// query sides always agree.
func TestStemIdempotentOnTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range tokens(s) {
			st := Stem(tok)
			if Stem(st) != st {
				// Porter is not formally idempotent on all strings, but on
				// its own output for tokenized input it is; a violation
				// here would mean index/query mismatch.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchTopNEmptyIndex(t *testing.T) {
	ix := NewIndex()
	ix.Freeze()
	hits, stats, err := ix.SearchTopN("anything", 10, TopNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 || stats.PostingsScored != 0 {
		t.Fatalf("hits = %v, stats = %+v", hits, stats)
	}
}

func TestSearchTopNDefaultK(t *testing.T) {
	ix := buildSmallIndex(t)
	hits, _, err := ix.SearchTopN("tennis", 0, TopNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("k=0 should default, not return nothing")
	}
}

func TestSearchKZeroReturnsAll(t *testing.T) {
	ix := buildSmallIndex(t)
	hits, _, err := ix.Search("tennis", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 { // three docs mention tennis
		t.Fatalf("hits = %v", hits)
	}
}

func TestFreezeIdempotent(t *testing.T) {
	ix := buildSmallIndex(t)
	ix.Freeze() // second freeze is a no-op
	if _, _, err := ix.Search("tennis", 1); err != nil {
		t.Fatal(err)
	}
}
