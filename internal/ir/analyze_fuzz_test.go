package ir_test

// FuzzAnalyze locks the one-analysis build path (PR 22) to what the two
// lanes computed before it: the tokenizer's ASCII byte path and the build's
// memoised Analyzer must analyse every text exactly as the rune-by-rune
// chain did, and the vector lane's token-fed embedding with its streamed
// bigram hash must reproduce the string-built embedding bit for bit.

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unicode"

	"repro/internal/ir"
	"repro/internal/vec"
)

// referenceAnalyze is the analysis chain as it stood before the ASCII path:
// range over runes, keep letters and digits lowercased, then drop stopwords
// and stem, which Analyze does to a text that is one such token.
func referenceAnalyze(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, ir.Analyze(b.String())...)
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// referenceEmbed is the hash embedding as it stood before the token-fed
// form: every bigram hashed from the built string prev + " " + tok.
func referenceEmbed(dim int, toks []string) []float32 {
	fnv := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return h
	}
	v := make([]float32, dim)
	prev := ""
	for _, tok := range toks {
		hash := fnv(tok)
		w := float32(1)
		if hash>>63&1 == 1 {
			w = -1
		}
		v[int(hash%uint64(dim))] += w
		if prev != "" {
			bh := fnv(prev + " " + tok)
			bw := float32(0.5)
			if bh>>63&1 == 1 {
				bw = -0.5
			}
			v[int(bh%uint64(dim))] += bw
		}
		prev = tok
	}
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	if ss != 0 {
		inv := float32(1 / math.Sqrt(ss))
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}

func FuzzAnalyze(f *testing.F) {
	for _, seed := range []string{
		"",
		"The AUSTRALIAN Open final, 1999: Smith beat Jones 6-4 7-5!",
		"the and of a an",
		"Müller très bien 東京 2024 ÉCOLE İstanbul ǅemal",
		"net-play rally service net-play rally",
		"\xff\xfeinvalid \xc3 utf8 \xe2\x82",
		"x\x00y\tz\n0123456789 __ caresses ponies ties",
		"ＡＢＣ１２３ ½ ² ٣ Ⅻ",
	} {
		f.Add(seed)
	}
	emb := vec.DefaultEmbedder()
	// One Analyzer across inputs, so its memo answers for tokens first seen
	// in earlier inputs, as a build's does across pages.
	var an ir.Analyzer
	f.Fuzz(func(t *testing.T, text string) {
		want := referenceAnalyze(text)
		if got := ir.Analyze(text); !slices.Equal(got, want) {
			t.Fatalf("Analyze(%q) = %q, want %q", text, got, want)
		}
		for pass := 0; pass < 2; pass++ { // cold memo, then warm
			if got := an.Analyze(text); !slices.Equal(got, want) {
				t.Fatalf("Analyzer.Analyze(%q) pass %d = %q, want %q", text, pass, got, want)
			}
		}
		wantVec := referenceEmbed(emb.Dim(), want)
		for _, got := range [][]float32{emb.Embed(text), emb.EmbedTokens(an.Analyze(text))} {
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(wantVec[i]) {
					t.Fatalf("embedding of %q: coordinate %d = %v, want %v", text, i, got[i], wantVec[i])
				}
			}
		}
	})
}
