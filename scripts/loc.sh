#!/bin/sh
# Code lines per source file: non-blank, non-comment lines above the first
# `#[cfg(test)]`, for every crates/*/src/**/*.rs, plus the total, then the
# same for the root package's src/**/*.rs and for vendored/*/src/**/*.rs,
# each with a total of its own. The three totals together are the "net LOC
# (non-test, non-doc)" figure the ROADMAP ground rules ask each PR to report; a `tests` total follows them. Exits non-zero when the two epoch drivers and the lane core they
# share (harness.rs + fleet.rs + lane.rs + lane/owner.rs, the owner rule that
# absorbed the failure detector) exceed the first ratchet below, or
# the replication engine (nilicon_engine.rs + placement.rs + stages.rs, plus
# any file engine code moves into) the second; ROADMAP item 1 PRs lower the
# first, item 2 PRs the second, nothing raises either.
set -eu
cd "$(dirname "$0")/.."

RATCHET=2015
ENGINES_RATCHET=1505

count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$1"
}

total=0
drivers=0
engines=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    n=$(count "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
    case "$f" in
    crates/core/src/harness.rs | crates/core/src/fleet.rs | crates/core/src/lane.rs | crates/core/src/lane/owner.rs)
        drivers=$((drivers + n))
        ;;
    crates/core/src/nilicon_engine.rs | crates/core/src/placement.rs | crates/core/src/stages.rs)
        engines=$((engines + n))
        ;;
    esac
done
printf '%6d  total\n' "$total"
# The root package's own code (the demo binary, the umbrella lib): a total
# of its own, outside both ratchets, so code moving between it and
# crates/bench shows in a PR's net figure instead of leaving it.
root=0
for f in $(find src -name '*.rs' | sort); do
    n=$(count "$f")
    printf '%6d  %s\n' "$n" "$f"
    root=$((root + n))
done
printf '%6d  root src total\n' "$root"
# The offline stand-ins are code this repo owns too: their lines are printed
# as a total of their own (informational, outside both ratchets) so a PR's
# net figure counts what a stand-in grew.
vendored=0
for f in $(find vendored/*/src -name '*.rs' | sort); do
    n=$(count "$f")
    printf '%6d  %s\n' "$n" "$f"
    vendored=$((vendored + n))
done
printf '%6d  vendored total\n' "$vendored"
# Test code, the same count (informational, no ratchet): every line of
# tests/*.rs and crates/*/tests/*.rs, and each source file's in-file test
# module, from its first `#[cfg(test)]` to the end of the file.
test_lines() {
    awk -v whole="$1" '/^[[:space:]]*#\[cfg\(test\)\]/ { on = 1 }
         !(whole + 0 || on) || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$2"
}
tests=0
for f in $(find tests crates/*/tests -name '*.rs' | sort); do
    tests=$((tests + $(test_lines 1 "$f")))
done
for f in $(find src crates/*/src -name '*.rs' | sort); do
    tests=$((tests + $(test_lines 0 "$f")))
done
printf '%6d  tests total\n' "$tests"
printf '%6d  harness.rs + fleet.rs + lane.rs + lane/owner.rs (ratchet %d)\n' "$drivers" "$RATCHET"
printf '%6d  nilicon_engine.rs + placement.rs + stages.rs (ratchet %d)\n' "$engines" "$ENGINES_RATCHET"
[ "$drivers" -le "$RATCHET" ] && [ "$engines" -le "$ENGINES_RATCHET" ]
