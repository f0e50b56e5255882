#!/usr/bin/env bash
# Apply the repo's .clang-format to every C++ source under the formatted
# directories (the same set CI's format-check job verifies). Usage:
#   scripts/format.sh            # rewrite files in place
#   scripts/format.sh --check    # dry run: exit non-zero on any diff
set -euo pipefail
cd "$(dirname "$0")/.."

CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"
mapfile -t files < <(git ls-files 'src/*.cpp' 'src/*.hpp' 'tests/*.cpp' 'examples/*.cpp')

if [[ "${1:-}" == "--check" ]]; then
  "$CLANG_FORMAT" --dry-run --Werror "${files[@]}"
else
  "$CLANG_FORMAT" -i "${files[@]}"
fi
