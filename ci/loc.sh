#!/bin/sh
# Non-test line ledger: for every crate under crates/, count the lines of
# src/**/*.rs that come before each file's first top-level `#[cfg(test)]`
# (one in column 0, normally the `mod tests` gate; an indented one on a
# single test-only method does not end the count, and a file with none
# counts whole), then print one row per crate and the total. A last
# `tests` row counts every line of the integration tests (tests/*.rs and
# crates/*/tests/*.rs) and an `examples` row every line of the example
# programs (examples/*.rs and crates/*/examples/*.rs); both stay out of
# the total, so code that moves between src/ and a test or an example
# shows in the ledger.
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
n=$(cat tests/*.rs crates/*/tests/*.rs | wc -l)
printf '%-14s %6d\n' tests "$n"
n=$(cat examples/*.rs crates/*/examples/*.rs | wc -l)
printf '%-14s %6d\n' examples "$n"
