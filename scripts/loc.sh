#!/usr/bin/env bash
# Non-test source size per crate, working tree vs a base ref.
#
# Usage: scripts/loc.sh [base-ref]      (default base-ref: HEAD)
#
# "Non-test" is the convention CHANGES.md has used since PR 12: the lines
# of each crates/*/src/**/*.rs file above its first `#[cfg(test)]`.
# Also prints, per crate, the non-test panic sites (`.unwrap()`,
# `.expect(`, `panic!(` outside `//` comment lines) and the field counts
# of the three config structs, so a PR's "options removed vs added" and
# panic-site lines can be read off instead of counted by hand.
# Read-only; never fails on a difference.
set -euo pipefail
cd "$(dirname "$0")/.."
BASE="${1:-HEAD}"

# stdin: one Rust file; stdout: its line count above the first #[cfg(test)].
non_test_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'
}

# stdin: one Rust file; stdout: its `.unwrap()` / `.expect(` / `panic!(`
# count above the first #[cfg(test)], skipping `//` comment lines.
panic_sites() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
         !done && !/^[[:space:]]*\/\// { n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(/, "&") }
         END { print n + 0 }'
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

# $1: "tree" or a git ref; $2: per-file counter (stdin: one Rust file);
# stdout: "<crate> <sum of the counter>" per crate.
per_crate() {
    local side="$1" count="$2" files
    if [[ "$side" == tree ]]; then
        files=$(find crates -path '*/src/*' -name '*.rs' | sort)
    else
        files=$(git ls-tree -r --name-only "$side" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$' | sort)
    fi
    for f in $files; do
        echo "$(cut -d/ -f2 <<<"$f") $(read_file "$side" "$f" | "$count")"
    done | awk '{ sum[$1] += $2 } END { for (c in sum) print c, sum[c] }' | sort
}

# $1: table title; $2: per-file counter. Prints base vs tree per crate.
crate_table() {
    printf '%-22s %10s %10s %8s\n' "$1" "$BASE" "tree" "delta"
    join -a1 -a2 -e 0 -o 0,1.2,2.2 <(per_crate "$BASE" "$2") <(per_crate tree "$2") |
        awk '{ printf "%-22s %10d %10d %+8d\n", $1, $2, $3, $3 - $2; b += $2; t += $3 }
             END { printf "%-22s %10d %10d %+8d\n", "total", b, t, t - b }'
}

crate_table "crate (non-test lines)" non_test_lines
echo
crate_table "panic sites (non-test)" panic_sites

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
