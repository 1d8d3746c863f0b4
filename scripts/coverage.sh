#!/usr/bin/env bash
# Coverage gate: the core packages must hold >= COVER_THRESHOLD (80%)
# statement coverage. Writes the merged profile to coverage.out (the CI
# coverage job uploads it as an artifact) and fails listing every
# package under the floor.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD="${COVER_THRESHOLD:-80}"
PKGS="repro/internal/graph repro/internal/jp repro/internal/order \
      repro/internal/spec repro/internal/verify repro/internal/dynamic \
      repro/internal/store repro/internal/cluster \
      repro/internal/faultinject repro/internal/retry \
      repro/internal/gen repro/internal/speculate repro/internal/obs \
      repro/internal/recolor repro/internal/quality repro/internal/mex"
# Every package above must print a coverage line: a package that loses
# its tests reports "[no test files]" instead, which must fail the
# gate, not slip past it.
EXPECTED=16

summary="$(mktemp)"
trap 'rm -f "$summary"' EXIT

# shellcheck disable=SC2086
go test -coverprofile=coverage.out $PKGS | tee "$summary"

awk -v min="$THRESHOLD" -v expected="$EXPECTED" '
  /coverage:/ {
    for (i = 1; i <= NF; i++) {
      if ($i == "coverage:") {
        pct = $(i + 1)
        sub(/%.*/, "", pct)
        if (pct + 0 < min + 0) {
          printf "coverage gate: %s at %s%% is below the %s%% floor\n", $2, pct, min
          bad = 1
        }
        seen++
      }
    }
  }
  END {
    if (seen != expected) {
      printf "coverage gate: %d coverage lines parsed, want %d (package without tests?)\n", seen, expected
      exit 1
    }
    if (bad) exit 1
    printf "coverage gate: all %d core packages >= %s%%\n", seen, min
  }
' "$summary"
