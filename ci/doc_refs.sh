#!/bin/sh
# DESIGN.md cross-reference check: every `DESIGN.md §N` / `DESIGN §N.M`
# reference in crates/, examples/, tests/, README.md and EXPERIMENTS.md
# (also one written as `DESIGN.md` §N, or broken across a comment line)
# must name a section DESIGN.md has a heading for (`## N.` or
# `### N.M`). Prints every dangling reference as file:line and exits 1
# if there is one.
#
#   ci/doc_refs.sh       # run from anywhere inside the repository
set -eu
cd "$(dirname "$0")/.."

grep -rlI 'DESIGN' crates examples tests README.md EXPERIMENTS.md |
    perl -e '
        my %have;
        open my $d, "<", "DESIGN.md" or die "DESIGN.md: $!\n";
        while (<$d>) {
            $have{$1} = 1 if /^#{2,}\s+(\d+(?:\.\d+)*)\.?\s/;
        }
        my ($refs, $bad) = (0, 0);
        while (my $f = <STDIN>) {
            chomp $f;
            open my $fh, "<", $f or die "$f: $!\n";
            my $text = do { local $/; <$fh> };
            while ($text =~ m{DESIGN(?:\.md)?`?[\s/!*#]*\x{c2}\x{a7}\s*(\d+(?:\.\d+)*)}g) {
                my $sec = $1;
                $refs++;
                next if $have{$sec};
                my $line = 1 + (substr($text, 0, $-[0]) =~ tr/\n//);
                print "$f:$line: DESIGN.md has no section $sec\n";
                $bad++;
            }
        }
        print "doc_refs: $refs DESIGN.md reference(s), $bad dangling\n";
        exit($bad ? 1 : 0);
    '
