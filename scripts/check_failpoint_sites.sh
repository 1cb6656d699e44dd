#!/usr/bin/env bash
# Fails unless the failpoint site names agree in four places:
#   1. the fail_point!("...") sites in crates/*/src (the failpoint crate's
#      own docs and tests name demo sites and are left out),
#   2. the PRMSEL_FAILPOINTS row of the README fault-injection table,
#   3. the site list in the crates/failpoint/src/lib.rs docs,
#   4. the all-sites entry of the CI chaos matrix.
# Usage: scripts/check_failpoint_sites.sh (from any directory).
set -euo pipefail
cd "$(dirname "$0")/.."

srcs=()
for d in crates/*/src; do
  [ "$d" = crates/failpoint/src ] || srcs+=("$d")
done
code=$(grep -rhoE 'fail_point!\("[a-z_.]+"\)' "${srcs[@]}" \
  | sed -E 's/.*\("([^"]+)"\).*/\1/' | sort -u)
readme=$(grep -E '^\| `PRMSEL_FAILPOINTS=site=' README.md \
  | grep -oE '`[a-z_]+\.[a-z_]+`' | tr -d '`' | sort -u)
docs=$(sed -n '/canonical sites are/,/see each crate/p' crates/failpoint/src/lib.rs \
  | grep -oE '`[a-z_]+\.[a-z_]+`' | tr -d '`' | sort -u)
chaos=$(grep -E '^ *- "[^"]*,[^"]*"$' .github/workflows/ci.yml \
  | sed -E 's/^ *- "(.*)"$/\1/' | tr ',' '\n' | sed 's/=.*//' | sort -u)

status=0
compare() {
  local name=$1 names=$2
  local missing extra
  if [ -z "$names" ]; then
    echo "$name: no site list found"
    status=1
    return
  fi
  missing=$(comm -23 <(echo "$code") <(echo "$names"))
  extra=$(comm -13 <(echo "$code") <(echo "$names"))
  if [ -n "$missing" ]; then
    echo "$name lacks a site the code has:" $missing
    status=1
  fi
  if [ -n "$extra" ]; then
    echo "$name lists a site no code has:" $extra
    status=1
  fi
}
compare "README PRMSEL_FAILPOINTS row" "$readme"
compare "failpoint crate docs" "$docs"
compare "CI chaos all-sites entry" "$chaos"

if [ "$status" -eq 0 ]; then
  echo "failpoint sites agree: $(echo "$code" | wc -l) sites"
fi
exit "$status"
