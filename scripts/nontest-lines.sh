#!/bin/sh
# Non-test lines of Rust per crate and in total: the one counting rule of
# ROADMAP item 9's subtraction ledger.
#
# Counts every .rs file under crates/*/src and src/, less what only a test
# build compiles:
#
#   * every item behind a column-0 `#[cfg(test)]` — a module body, a gated
#     `impl`, `fn` or `use`, a signature spread over several lines — from
#     the attribute to the item's closing column-0 `}` (or, for an item
#     whose body does not open at a line end, its first line ending in `;`
#     or `}`);
#   * every file such an item mounts (`#[cfg(test)] mod x;` skips `x.rs`
#     or `x/mod.rs` beside or below its parent).
#
# An indented `#[cfg(test)]` (a field, a statement) does not end the count.
# Run from the repository root (or pass it as the first argument):
#
#   scripts/nontest-lines.sh [--lines] [root]
#
# `--lines` prints the counted lines themselves, one `file:line:text` each,
# in file order, instead of the per-crate totals.
set -eu
mode=count
if [ "${1:-}" = --lines ]; then mode=lines; shift; fi
cd "${1:-.}"
find src crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { skip = 0; closing = 0 }
    # The directory a `mod x;` in this file resolves against.
    function moddir(file) {
        if (file ~ /(^|\/)(lib|main|mod)\.rs$/) { sub(/\/[^\/]*$/, "", file); return file }
        sub(/\.rs$/, "", file)
        return file
    }
    !skip && /^#\[cfg\(test\)\]/ {
        skip = 1; body = 0
        sub(/^#\[cfg\(test\)\][[:space:]]*/, "")
        if ($0 == "") next
    }
    # A bare column-0 `}` closes the item only when a blank line, an
    # attribute, a comment or the end of the file follows it: inside a
    # multi-line string literal it is followed by more of the string.
    closing {
        closing = 0
        if ($0 == "" || $0 ~ /^(#\[|\/\/)/) skip = 0
    }
    skip {
        if (!body && match($0, /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/)) {
            name = $0; sub(/;.*/, "", name); sub(/.* /, "", name)
            print "mounted", moddir(FILENAME) "/" name ".rs"
            print "mounted", moddir(FILENAME) "/" name "/mod.rs"
        }
        if (body) closing = $0 ~ /^};?[[:space:]]*$/
        else if ($0 ~ /^(\/\/|#\[)/) { }
        else if ($0 ~ /\{[[:space:]]*$/) body = 1
        else if ($0 ~ /[;}][[:space:]]*$/) skip = 0
        next
    }
    { print "line", FILENAME ":" FNR ":" $0 }
' | awk -v mode="$mode" '
    $1 == "mounted" { mounted[$2] = 1; next }
    {
        file = $2; sub(/:.*/, "", file)
        lines[file]++
        if (mode == "lines") { text[++n] = substr($0, 6); of[n] = file }
    }
    END {
        if (mode == "lines") {
            for (i = 1; i <= n; i++) if (!(of[i] in mounted)) print text[i]
            exit
        }
        for (file in lines) {
            if (file in mounted) continue
            unit = file
            if (unit ~ /^src\//) unit = "src"
            else { sub(/^crates\//, "", unit); sub(/\/.*/, "", unit); unit = "crates/" unit }
            per[unit] += lines[file]; total += lines[file]
        }
        for (u in per) printf "%7d  %s\n", per[u], u | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d  total\n", total
    }'
