#!/bin/sh
# Non-test lines of Rust per crate and in total: the one counting rule of
# ROADMAP item 5's subtraction ledger.
#
# Counts every .rs file under crates/*/src and src/, each cut at the first
# `#[cfg(test)]` line that is directly followed by a `mod` item — the
# trailing unit-test module. A `#[cfg(test)]` on anything else (a field, a
# `use`) does not end the count. Run from the repository root (or pass it
# as the first argument):
#
#   scripts/nontest-lines.sh [root]
set -eu
cd "${1:-.}"
find src crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    case "$file" in
        src/*) unit=src ;;
        *) unit=${file#crates/}; unit=crates/${unit%%/*} ;;
    esac
    lines=$(awk '
        held != "" { if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) exit; n++; held = "" }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = $0; next }
        { n++ }
        END { print n + 0 }' "$file")
    echo "$unit $lines"
done | awk '
    { per[$1] += $2; total += $2 }
    END {
        for (u in per) printf "%7d  %s\n", per[u], u | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d  total\n", total
    }'
