#!/usr/bin/env bash
# Non-test line count: the non-blank lines of *.rs and *.sh files under
# crates/, third_party/, scripts/ and src/ that do not start with `//`.
# tests/ and benches/ directories are skipped, and each .rs file is cut at
# its first line starting with the test-module attribute. Prints one line per
# crate (or top-level directory), then the total.
# Run from the repository root:  ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find crates third_party scripts src \
    -type d \( -name tests -o -name benches \) -prune -o \
    -type f \( -name '*.rs' -o -name '*.sh' \) -print | LC_ALL=C sort)

awk '
    FNR == 1 {
        cut = 0
        split(FILENAME, part, "/")
        unit = (part[1] == "crates" || part[1] == "third_party") ? part[1] "/" part[2] : part[1]
    }
    { line = $0; sub(/^[ \t]+/, "", line) }
    FILENAME ~ /\.rs$/ && index(line, "#[cfg(test)]") == 1 { cut = 1 }
    cut || line == "" || substr(line, 1, 2) == "//" { next }
    { count[unit]++; total++ }
    END {
        for (u in count) printf "%7d  %s\n", count[u], u | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d  total\n", total
    }
' "${files[@]}"
