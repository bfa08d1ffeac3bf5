// Package ir implements scalable full-text indexing and retrieval: an
// in-memory inverted index (the original ran on Monet, a main-memory DBMS)
// with BM25 ranking and the top-N query optimization of the system's IR
// component (Blok et al., reference [1] of the demo paper): impact-ordered,
// horizontally fragmented posting lists processed best-first with safe
// early termination, trading a controlled amount of work for top-N quality.
package ir

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// asciiFold maps an ASCII byte to its lowercase form when it is a letter or
// a digit and to 0 when it separates tokens: unicode.IsLetter/IsDigit and
// unicode.ToLower restricted to the ASCII range.
var asciiFold = func() (t [utf8.RuneSelf]byte) {
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c
	}
	for c := byte('a'); c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = c, c
	}
	return t
}()

// scanTokens is the one tokenizer: it lowercases the text and splits it
// into maximal runs of letters and digits, calling emit with every token in
// order, in buf's storage (reused and returned so callers can recycle it).
// emit must copy what it keeps. The rule is Unicode's: any rune for which
// unicode.IsLetter or unicode.IsDigit holds extends a token (lowercased by
// unicode.ToLower), any other rune — and every byte of invalid UTF-8 — ends
// one. Bytes below 0x80 go through asciiFold, a byte-table path that applies
// exactly that rule to the ASCII range; a byte at or above it decodes one
// rune and applies the Unicode rule, so mixed text switches path rune by
// rune with the same result.
func scanTokens(text string, buf []byte, emit func(tok []byte)) []byte {
	buf = buf[:0]
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			if f := asciiFold[c]; f != 0 {
				buf = append(buf, f)
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
				continue
			}
		}
		if len(buf) > 0 {
			emit(buf)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		emit(buf)
	}
	return buf
}

// stopwords is a compact English stopword list; function words carry no
// retrieval signal and bloat the index.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
a an and are as at be but by for from had has have he her his i if in into
is it its me my no not of on or our she so that the their them then there
these they this to was we were what when where which who will with you your
`) {
		stopwords[w] = true
	}
}

// Analyze runs the full text-analysis chain: tokenize, drop stopwords,
// stem. This is the canonical document/query preprocessing.
func Analyze(text string) []string {
	var out []string
	scanTokens(text, nil, func(tok []byte) {
		if !stopwords[string(tok)] {
			out = append(out, Stem(string(tok)))
		}
	})
	return out
}

// Analyzer is Analyze for a batch of documents: each distinct token is
// stemmed once per Analyzer instead of once per occurrence, and the token
// and output buffers are recycled across calls. A build owns one Analyzer
// per goroutine and drops it with the build; nothing is cached between
// builds or process-wide, so query traffic — which calls Analyze — can
// never grow a memo. The zero value is ready to use; an Analyzer is not
// safe for concurrent use.
type Analyzer struct {
	stems map[string]string // token -> Stem(token), stopwords excluded
	buf   []byte
	out   []string
}

// Analyze returns exactly what the package-level Analyze returns for text.
// The slice is reused by the next call; its strings are not.
func (a *Analyzer) Analyze(text string) []string {
	if a.stems == nil {
		a.stems = map[string]string{}
	}
	a.out = a.out[:0]
	a.buf = scanTokens(text, a.buf, func(tok []byte) {
		if stopwords[string(tok)] {
			return
		}
		st, ok := a.stems[string(tok)]
		if !ok {
			t := string(tok)
			st = Stem(t)
			a.stems[t] = st
		}
		a.out = append(a.out, st)
	})
	return a.out
}
