#!/usr/bin/env bash
# Print the library surface counts that simplicity changes report:
#   lines  - lines of lib/*/*.ml{,i} and bin/*.ml{,i}
#   vals   - `val` declarations in lib/*/*.mli
#   opts   - optional arguments (`?name:`) in lib/*/*.mli
# Run from anywhere: bash bench/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."
lines=$(cat lib/*/*.ml lib/*/*.mli bin/*.ml bin/*.mli | wc -l)
vals=$(cat lib/*/*.mli | grep -c '^ *val ')
opts=$(cat lib/*/*.mli | grep -o '?[a-z_]*:' | wc -l)
echo "lines $lines"
echo "vals $vals"
echo "opts $opts"
