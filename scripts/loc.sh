#!/usr/bin/env bash
# Non-test source size per crate, working tree vs a base ref.
#
# Usage: scripts/loc.sh [base-ref]      (default base-ref: HEAD)
#
# "Non-test" is the convention CHANGES.md has used since PR 12: the lines
# of each crates/*/src/**/*.rs file above its first `#[cfg(test)]`.
# Also prints the field counts of the three config structs, so a PR's
# "options removed vs added" line can be read off instead of counted by
# hand. Read-only; never fails on a difference.
set -euo pipefail
cd "$(dirname "$0")/.."
BASE="${1:-HEAD}"

# stdin: one Rust file; stdout: its line count above the first #[cfg(test)].
non_test_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'
}

# stdin: one Rust file; $1: struct name; stdout: its `pub` field count.
field_count() {
    awk -v s="$1" '
        $0 ~ "^pub struct " s " \\{" { inside = 1; next }
        inside && /^\}/ { inside = 0 }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }'
}

# $1: "tree" or a git ref; $2: path.
read_file() {
    if [[ "$1" == tree ]]; then cat "$2"; else git show "$1:$2"; fi
}

# $1: "tree" or a git ref; stdout: "<crate> <non-test lines>" per crate.
crate_sizes() {
    local side="$1" files
    if [[ "$side" == tree ]]; then
        files=$(find crates -path '*/src/*' -name '*.rs' | sort)
    else
        files=$(git ls-tree -r --name-only "$side" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$' | sort)
    fi
    for f in $files; do
        echo "$(cut -d/ -f2 <<<"$f") $(read_file "$side" "$f" | non_test_lines)"
    done | awk '{ sum[$1] += $2 } END { for (c in sum) print c, sum[c] }' | sort
}

printf '%-22s %10s %10s %8s\n' "crate (non-test lines)" "$BASE" "tree" "delta"
join -a1 -a2 -e 0 -o 0,1.2,2.2 <(crate_sizes "$BASE") <(crate_sizes tree) |
    awk '{ printf "%-22s %10d %10d %+8d\n", $1, $2, $3, $3 - $2; b += $2; t += $3 }
         END { printf "%-22s %10d %10d %+8d\n", "total", b, t, t - b }'

echo
printf '%-22s %10s %10s %8s\n' "config fields" "$BASE" "tree" "delta"
while read -r name path; do
    b=$(read_file "$BASE" "$path" 2>/dev/null | field_count "$name")
    t=$(read_file tree "$path" | field_count "$name")
    printf '%-22s %10d %10d %+8d\n' "$name" "$b" "$t" "$((t - b))"
done <<'EOF'
ServerConfig crates/slamshare-core/src/server.rs
LoadConfig crates/slamshare-core/src/load.rs
MappingConfig crates/slamshare-slam/src/mapping.rs
EOF
