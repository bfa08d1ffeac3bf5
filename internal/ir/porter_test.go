package ir

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// referenceIsCons, referenceMeasure and referenceHasVowel are Porter's
// definitions transcribed literally (the pre-PR-22 code): each letter's
// class derived on its own, recursively through a run of y's.
func referenceIsCons(w string, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !referenceIsCons(w, i-1)
	default:
		return true
	}
}

func referenceMeasure(w string) int {
	m, i, n := 0, 0, len(w)
	for i < n && referenceIsCons(w, i) {
		i++
	}
	for {
		for i < n && !referenceIsCons(w, i) {
			i++
		}
		if i >= n {
			return m
		}
		for i < n && referenceIsCons(w, i) {
			i++
		}
		m++
		if i >= n {
			return m
		}
	}
}

func referenceHasVowel(w string) bool {
	for i := range w {
		if !referenceIsCons(w, i) {
			return true
		}
	}
	return false
}

// TestPorterClassesMatchDefinition locks the linear consonant scan to the
// recursive definition on words dense in y runs, where the two differ in
// method most.
func TestPorterClassesMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const alphabet = "yyyyaeiobstlz"
	for trial := 0; trial < 5000; trial++ {
		b := make([]byte, 1+rng.Intn(24))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		w := string(b)
		for i := range w {
			if got, want := isCons(w, i), referenceIsCons(w, i); got != want {
				t.Fatalf("isCons(%q, %d) = %v, want %v", w, i, got, want)
			}
		}
		if got, want := measure(w), referenceMeasure(w); got != want {
			t.Fatalf("measure(%q) = %d, want %d", w, got, want)
		}
		if got, want := hasVowel(w), referenceHasVowel(w); got != want {
			t.Fatalf("hasVowel(%q) = %v, want %v", w, got, want)
		}
	}
}

// TestStemLinearInYRuns: a query is stemmed on every search, so a long run
// of y's must not cost quadratic time. At the parent a 64k-letter run took
// about a minute (measure re-derived every y's class from the start of its
// run); linear, it takes well under a millisecond.
func TestStemLinearInYRuns(t *testing.T) {
	word := strings.Repeat("y", 1<<16) + "ing"
	done := make(chan string, 1)
	go func() { done <- Stem(word) }()
	select {
	case got := <-done:
		if want := strings.Repeat("y", 1<<16-1) + "i"; got != want {
			t.Fatalf("Stem(y^65536 ing) = %d letters ending %q", len(got), got[len(got)-4:])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stem of a 64k y-run did not finish in 5s")
	}
}
