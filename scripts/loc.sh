#!/usr/bin/env bash
# Counts the workspace's Rust lines, split into code and tests, at a git
# revision and in the working tree, and prints the difference: the net
# program lines a change adds or removes.
#
#   scripts/loc.sh [REV]        # REV defaults to HEAD
#
# Counted: every *.rs file under crates/, src/, tests/ and examples/
# (simbench/, the benchmark package, is not among them). Test lines are
# whole files under a tests/ directory, plus every other file from its
# `#[cfg(test)]` module to its end. Blank and comment lines count too, so
# the difference equals the net line count of the diff.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-HEAD}
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "loc.sh: unknown revision '$rev'" >&2
    exit 2
fi
dirs=(crates src tests examples)

# Reads paths on stdin and prints "code tests" summed over them; each
# file's text comes from running the reader command given as arguments
# with the path appended.
count() {
    local code=0 tests=0 c t f whole
    while IFS= read -r f; do
        whole=0
        [[ $f == tests/* || $f == */tests/* ]] && whole=1
        read -r c t < <("$@" "$f" | awk -v whole="$whole" '
            { line[NR] = $0 }
            END {
                start = whole ? 1 : NR + 1
                for (i = 1; !whole && i < NR; i++) {
                    if (line[i] ~ /^[ \t]*#\[cfg\(test\)\]/ &&
                        line[i + 1] ~ /^[ \t]*(pub(\([a-z]+\))? +)?mod /) {
                        start = i
                        break
                    }
                }
                print start - 1, NR - start + 1
            }')
        code=$((code + c))
        tests=$((tests + t))
    done
    echo "$code $tests"
}

show_at_rev() { git show "$rev:$1"; }

read -r rev_code rev_tests < <(git ls-tree -r --name-only "$rev" -- "${dirs[@]}" |
    grep '\.rs$' | count show_at_rev)
read -r wt_code wt_tests < <(git ls-files --cached --others --exclude-standard -- "${dirs[@]}" |
    grep '\.rs$' | while IFS= read -r f; do [[ -f $f ]] && echo "$f"; done | count cat)

printf '%-14s %8s %8s %8s\n' "Rust lines" code tests total
printf '%-14s %8d %8d %8d\n' "$rev" "$rev_code" "$rev_tests" $((rev_code + rev_tests))
printf '%-14s %8d %8d %8d\n' "working tree" "$wt_code" "$wt_tests" $((wt_code + wt_tests))
printf '%-14s %+8d %+8d %+8d\n' difference $((wt_code - rev_code)) $((wt_tests - rev_tests)) \
    $((wt_code + wt_tests - rev_code - rev_tests))
