#!/bin/sh
# Non-test line ledger: for every crate under crates/, count the lines of
# src/**/*.rs that come before each file's first top-level `#[cfg(test)]`
# (one in column 0, normally the `mod tests` gate; an indented one on a
# single test-only method does not end the count, and a file with none
# counts whole), then print one row per crate and the total.
#
#   ci/loc.sh            # run from the repository root
set -eu
cd "$(dirname "$0")/.."

total=0
printf '%-14s %6s\n' crate lines
for dir in crates/*/; do
    [ -d "${dir}src" ] || continue
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "${dir}Cargo.toml" | head -n 1)
    n=$(find "${dir}src" -name '*.rs' -type f -exec \
        awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-14s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
