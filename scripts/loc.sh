#!/bin/sh
# Code lines per source file: non-blank, non-comment lines above the first
# `#[cfg(test)]`, for every crates/*/src/**/*.rs, plus the total, then the
# same for vendored/*/src/**/*.rs with a total of its own. The two totals
# together are the "net LOC (non-test, non-doc)" figure the ROADMAP ground
# rules ask each PR to report. Exits non-zero when the two epoch drivers and the lane core they
# share (harness.rs + fleet.rs + lane.rs) exceed the first ratchet below, or
# the replication engine (nilicon_engine.rs + placement.rs + stages.rs, plus
# any file engine code moves into) the second; ROADMAP item 1 PRs lower the
# first, item 2 PRs the second, nothing raises either.
set -eu
cd "$(dirname "$0")/.."

RATCHET=2075
ENGINES_RATCHET=1533

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
    crates/core/src/harness.rs | crates/core/src/fleet.rs | crates/core/src/lane.rs)
        drivers=$((drivers + n))
        ;;
    crates/core/src/nilicon_engine.rs | crates/core/src/placement.rs | crates/core/src/stages.rs)
        engines=$((engines + n))
        ;;
    esac
done
printf '%6d  total\n' "$total"
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
printf '%6d  harness.rs + fleet.rs + lane.rs (ratchet %d)\n' "$drivers" "$RATCHET"
printf '%6d  nilicon_engine.rs + placement.rs + stages.rs (ratchet %d)\n' "$engines" "$ENGINES_RATCHET"
[ "$drivers" -le "$RATCHET" ] && [ "$engines" -le "$ENGINES_RATCHET" ]
