#!/bin/sh
# Public functions no non-test code calls: ROADMAP item 9's rule that every
# entry point has a caller.
#
# Prints the name of every `pub fn` on a non-test line of the library (the
# lines `scripts/nontest-lines.sh --lines` counts) whose name appears on no
# other non-test line. Non-test code is four places:
#
#   * src/ and crates/*/src outside `#[cfg(test)]`, by the counting rule;
#   * every file one of those lines mounts with `#[path = "…"]`;
#   * benchmark/src;
#   * examples/.
#
# Comment lines (`//`, `///`, `//!`) are skipped; any other line counts
# where the name appears in it as a whole word. That makes the check a
# ratchet, not a proof. Name collisions are not caught: two uncalled
# `members` methods once hid each other, and a called `average_mbps` hid
# two uncalled ones. Nor are self-mentions (a recursive call, a string
# holding the name). A name it prints either goes or, when only a test
# needs it, moves behind `#[cfg(test)]`.
#
# Run from the repository root; it exits 1 on any name it prints:
#
#   scripts/pub-callers.sh
set -eu
script=$(cd "$(dirname "$0")" && pwd)
lib=$(mktemp)
trap 'rm -f "$lib"' EXIT
"$script/nontest-lines.sh" --lines . > "$lib"
# The files a non-test line mounts with `#[path]`, resolved against the
# directory of the file that holds the attribute.
mounted=$(awk '
    {
        file = $0; sub(/:.*/, "", file)
        if (match($0, /#\[path = "[^"]*"\]/)) {
            path = substr($0, RSTART + 10, RLENGTH - 12)
            dir = file; sub(/\/[^\/]*$/, "", dir)
            print dir "/" path
        }
    }' "$lib" | xargs -r realpath -m --relative-to=. | LC_ALL=C sort -u)
uncalled=$(
    {
        sed 's/^/lib:/' "$lib"
        find benchmark/src examples $mounted -name '*.rs' 2>/dev/null | LC_ALL=C sort |
            xargs -r awk '{ print "use:" FILENAME ":" FNR ":" $0 }'
    } | awk '
        {
            kind = substr($0, 1, 3)
            text = $0; sub(/^[a-z]+:[^:]*:[0-9]+:/, "", text)
            if (text ~ /^[[:space:]]*\/\//) next
            if (kind == "lib" && match(text, /(^|[^A-Za-z0-9_])pub (const |unsafe )*fn [A-Za-z0-9_]+/)) {
                name = substr(text, RSTART, RLENGTH); sub(/.* /, "", name)
                defined[name] = 1
            }
            delete seen
            n = split(text, words, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (!(words[i] in seen)) { seen[words[i]] = 1; count[words[i]]++ }
        }
        END { for (name in defined) if (count[name] == 1) print name }' | LC_ALL=C sort
)
for name in $uncalled; do
    echo "pub-callers: \`$name\` has no non-test caller" >&2
done
[ -z "$uncalled" ]
