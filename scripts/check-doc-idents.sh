#!/bin/sh
# check-doc-idents.sh — stale-name check for DESIGN.md and README.md
# (make check).
#
# A document that cites a deleted function, option, counter or environment
# variable in backticks reads as if it still existed. This script takes
# every inline code span outside fenced blocks of the two documents that
# has the shape of a Go identifier — optionally dotted (`pkg.Name`,
# `Type.Method`) and optionally called (`Name(...)`) — and fails unless each
# dotted part occurs as a whole word in the repository's Go, shell,
# Makefile or JSON text. A span that is a file's path, name or name without
# extension (`BENCH_8`, `allcells.go`) passes too. Spans of any other shape
# (expressions, commands, units) are not checked.
#
# History belongs in CHANGES.md, which is not checked: a removed name may
# stay there.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find . -name .git -prune -o -type f \( -name '*.go' -o -name '*.sh' -o -name '*.json' -o -name Makefile \) -exec cat {} + |
	grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$tmp/words"
find . -name .git -prune -o -type f -print |
	awk '{ p = substr($0, 3); print p; n = split(p, part, "/"); b = part[n]; print b; sub(/\..*/, "", b); print b }' |
	sort -u >"$tmp/files"

awk -v words="$tmp/words" -v files="$tmp/files" '
BEGIN {
	while ((getline w < words) > 0) word[w] = 1
	while ((getline f < files) > 0) file[f] = 1
}
FNR == 1 { fence = 0 }
/^[ \t]*```/ { fence = !fence; next }
fence { next }
{
	line = $0
	while (match(line, /`[^`]+`/)) {
		span = substr(line, RSTART + 1, RLENGTH - 2)
		line = substr(line, RSTART + RLENGTH)
		if (span in file) continue
		id = span
		sub(/\(.*\)$/, "", id)
		if (id !~ /^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$/) continue
		n = split(id, part, ".")
		for (i = 1; i <= n; i++) {
			if (!(part[i] in word)) {
				printf "%s:%d: `%s` names nothing in the repository\n", FILENAME, FNR, span
				bad = 1
				break
			}
		}
	}
}
END { exit bad }
' DESIGN.md README.md >"$tmp/stale" || {
	echo "check-doc-idents: stale identifiers in DESIGN.md/README.md (move their history to CHANGES.md):" >&2
	cat "$tmp/stale" >&2
	exit 1
}
echo "check-doc-idents: every backticked identifier in DESIGN.md and README.md names something in the repository"
