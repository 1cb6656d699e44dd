#!/usr/bin/env bash
# Fails unless the PRMSEL_* environment variables agree in three places:
#   1. the string literals in crates/*/src (what the code reads),
#   2. the rows of the knob table in README.md,
#   3. the env lines of `prmsel --help` in crates/cli/src/commands.rs.
# Usage: scripts/check_env_knobs.sh (from any directory).
set -euo pipefail
cd "$(dirname "$0")/.."

code=$(grep -rhoE '"PRMSEL_[A-Z0-9_]+' crates/*/src | tr -d '"' | sort -u)
readme=$(grep -oE '^\| `PRMSEL_[A-Z0-9_]+' README.md | sed 's/^| `//' | sort -u)
help=$(grep -oE '^  PRMSEL_[A-Z0-9_]+' crates/cli/src/commands.rs | sed 's/^ *//' | sort -u)

status=0
compare() {
  local name=$1 names=$2
  local missing extra
  missing=$(comm -23 <(echo "$code") <(echo "$names"))
  extra=$(comm -13 <(echo "$code") <(echo "$names"))
  if [ -n "$missing" ]; then
    echo "$name lacks a knob the code reads:" $missing
    status=1
  fi
  if [ -n "$extra" ]; then
    echo "$name lists a knob no code reads:" $extra
    status=1
  fi
}
compare "README knob table" "$readme"
compare "prmsel --help" "$help"

if [ "$status" -eq 0 ]; then
  echo "env knobs agree: $(echo "$code" | wc -l) PRMSEL_* names"
fi
exit "$status"
