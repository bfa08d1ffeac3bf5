#!/usr/bin/env bash
# Non-test Go lines per package: `wc -l` over every .go file not named
# *_test.go that git tracks or would track and that the work tree holds (a
# file deleted but still in the index is not counted) — the count README.md's
# package map shows and ROADMAP.md's "Net state" quotes, and how "less code
# at equal behaviour" is judged. The root module is listed package by package
# (the root package as `repro`, cmd/ and scripts/ as one row each), then its
# total and its test lines; bench/ is its own module and is counted apart.
#
#   scripts/loc.sh          print "<package> <lines>" rows
#   scripts/loc.sh -check   fail unless README.md's package map agrees
set -euo pipefail
cd "$(dirname "$0")/.."

# lines <include> <exclude>: total lines of the .go files whose repo-relative
# path matches the first grep -E pattern and not the second.
lines() {
	git ls-files --cached --others --exclude-standard -- '*.go' |
		grep -E "$1" | grep -vE "$2" | while IFS= read -r f; do
			if [ -f "$f" ]; then printf '%s\0' "$f"; fi
		done | xargs -0 -r cat | wc -l | tr -d ' '
}

loc() {
	echo "repro $(lines '^[^/]+\.go$' '_test\.go$')"
	for d in internal/*/ cmd/ scripts/; do
		echo "${d%/} $(lines "^$d" '_test\.go$')"
	done
	echo "total $(lines . '_test\.go$|^bench/')"
	echo "tests $(lines '_test\.go$' '^bench/')"
	echo "bench $(lines '^bench/' '_test\.go$')"
}

if [ "${1:-}" != -check ]; then
	loc
	exit 0
fi

# The package map names one or more packages per row in backticks (bare
# names are internal/ packages, `cmd/*` and `scripts/*` whole trees, file
# names are skipped) and gives their counts in the same order in
# the next column; the sentence above it states the two module totals.
commas() { sed -E ':a;s/([0-9])([0-9]{3})($|,)/\1,\2\3/;ta'; }
readme=$(awk '/^## Package map/{on=1;next} /^## /{on=0} on' README.md)
shown=$(printf '%s\n' "$readme" | awk -F'|' '
	/^\| *`/ {
		n = 0
		rest = $2
		while (match(rest, /`[^`]+`/)) {
			name = substr(rest, RSTART + 1, RLENGTH - 2)
			rest = substr(rest, RSTART + RLENGTH)
			if (name ~ /\.go$/) continue
			sub(/\/\*$/, "", name)
			if (name !~ /^(repro|cmd|scripts)$/ && name !~ /^internal\//) name = "internal/" name
			names[++n] = name
		}
		m = split($3, nums, /, /)
		for (i = 1; i <= n; i++) {
			v = (i <= m) ? nums[i] : "?"
			gsub(/[ ,]/, "", v)
			print names[i], v
		}
	}' | sort)
fail=0
want=$(loc)
if ! diff <(printf '%s\n' "$want" | grep -vE '^(total|tests|bench) ' | sort) <(printf '%s\n' "$shown") >&2; then
	echo "loc-check: README.md package map disagrees with scripts/loc.sh (< counted, > shown)" >&2
	fail=1
fi
total=$(printf '%s\n' "$want" | awk '$1=="total"{print $2}' | commas)
bench=$(printf '%s\n' "$want" | awk '$1=="bench"{print $2}' | commas)
for s in "$total in the root module" "$bench under \`bench/\`"; do
	if ! printf '%s\n' "$readme" | tr '\n' ' ' | grep -qF -- "$s"; then
		echo "loc-check: README.md package map does not say \"$s\"" >&2
		fail=1
	fi
done
exit $fail
