package ir

// The Porter stemming algorithm (M.F. Porter, 1980), implemented directly
// from the published definition. Stem expects a lowercase word and returns
// its stem; words of length <= 2 are returned unchanged.

// consAfter reports whether w[i] is a consonant in Porter's sense — a
// letter other than a, e, i, o, u, and other than a y preceded by a
// consonant — given whether w[i-1] is (ignored at i == 0). It is the one
// letter classifier: every caller scans forward with it, so a run of y's
// costs linear time (stemming runs on query text, which is user input).
func consAfter(w string, i int, prevCons bool) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		return i == 0 || !prevCons
	default:
		return true
	}
}

// isCons reports whether w[i] is a consonant, scanning from the letter
// before i's run of y's: that letter is not a y, so its class is its own.
func isCons(w string, i int) bool {
	j := i
	for j > 0 && w[j-1] == 'y' {
		j--
	}
	cons := false
	for j = max(j-1, 0); j <= i; j++ {
		cons = consAfter(w, j, cons)
	}
	return cons
}

// measure returns m, the number of VC sequences in the word — the number of
// vowel-to-consonant transitions, counted in one forward scan.
func measure(w string) int {
	m := 0
	cons := false
	for i := range len(w) {
		c := consAfter(w, i, cons)
		if c && i > 0 && !cons {
			m++
		}
		cons = c
	}
	return m
}

// hasVowel reports whether the word contains a vowel.
func hasVowel(w string) bool {
	cons := false
	for i := range len(w) {
		if cons = consAfter(w, i, cons); !cons {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether the word ends with a double consonant.
func endsDoubleCons(w string) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// endsCVC reports whether the word ends consonant-vowel-consonant where the
// final consonant is not w, x or y.
func endsCVC(w string) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// replaceSuffix replaces suffix with repl if the stem (word minus suffix)
// has measure > min. Returns the new word and whether the suffix matched
// (regardless of whether the condition passed).
func replaceSuffix(w, suffix, repl string, minM int) (string, bool) {
	if !hasSuffix(w, suffix) {
		return w, false
	}
	stem := w[:len(w)-len(suffix)]
	if measure(stem) > minM {
		return stem + repl, true
	}
	return w, true
}

func hasSuffix(w, s string) bool {
	return len(w) >= len(s) && w[len(w)-len(s):] == s
}

// Stem applies the Porter algorithm to a lowercase word.
func Stem(w string) string {
	if len(w) <= 2 {
		return w
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return w
}

func step1a(w string) string {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w string) string {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem string
	switch {
	case hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return stem + "e"
	case endsDoubleCons(stem) && !hasSuffix(stem, "l") && !hasSuffix(stem, "s") && !hasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case measure(stem) == 1 && endsCVC(stem):
		return stem + "e"
	}
	return stem
}

func step1c(w string) string {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		return w[:len(w)-1] + "i"
	}
	return w
}

var step2Rules = []struct{ suf, repl string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w string) string {
	for _, r := range step2Rules {
		if hasSuffix(w, r.suf) {
			out, _ := replaceSuffix(w, r.suf, r.repl, 0)
			return out
		}
	}
	return w
}

var step3Rules = []struct{ suf, repl string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w string) string {
	for _, r := range step3Rules {
		if hasSuffix(w, r.suf) {
			out, _ := replaceSuffix(w, r.suf, r.repl, 0)
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w string) string {
	for _, suf := range step4Suffixes {
		if !hasSuffix(w, suf) {
			continue
		}
		stem := w[:len(w)-len(suf)]
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	// (m>1 and (*S or *T)) ION
	if hasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if measure(stem) > 1 && (hasSuffix(stem, "s") || hasSuffix(stem, "t")) {
			return stem
		}
	}
	return w
}

func step5a(w string) string {
	if hasSuffix(w, "e") {
		stem := w[:len(w)-1]
		m := measure(stem)
		if m > 1 || (m == 1 && !endsCVC(stem)) {
			return stem
		}
	}
	return w
}

func step5b(w string) string {
	if measure(w) > 1 && endsDoubleCons(w) && hasSuffix(w, "l") {
		return w[:len(w)-1]
	}
	return w
}
