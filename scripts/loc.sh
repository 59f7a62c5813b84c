#!/usr/bin/env bash
# Non-test source size per crate, working tree vs a base ref.
#
# Usage: scripts/loc.sh [base-ref]      (default base-ref: HEAD)
#
# "Non-test" is the convention CHANGES.md has used since PR 12: the lines
# of each crates/*/src/**/*.rs file above its first `#[cfg(test)]`.
# Also prints, per crate, the non-test panic sites (`.unwrap()`,
# `.expect(`, `panic!(` outside `//` comment lines), the field counts of
# the config structs, each crate's Cargo `[features]` (other than
# `default`), the options removed and added over both, and the number of
# `pub fn`s on `EdgeServer`, so a PR's "options removed vs added",
# panic-site and API-surface lines can be read off instead of counted by
# hand. Last, the count of `charge(` call
# sites of the GPU cost model (non-test lines, every crate), which should
# stay small: modeled time is made only where it is reported.
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

# stdin: one Rust file; $1: struct name; stdout: its `pub` field count
# (the struct may sit in an inline module, at any indent).
field_count() {
    awk -v s="$1" '
        !inside && $0 ~ "^ *pub struct " s " \\{" {
            match($0, /^ */); pad = substr($0, 1, RLENGTH); inside = 1; next
        }
        inside && $0 == pad "}" { inside = 0 }
        inside && index($0, pad "    pub ") == 1 && substr($0, length(pad) + 9) ~ /^[a-z_0-9]+:/ { n++ }
        END { print n + 0 }'
}

# stdin: one Rust file; $1: type name; stdout: the `pub fn` count of its
# inherent `impl` block.
pub_fn_count() {
    awk -v s="$1" '
        $0 ~ "^impl " s " \\{" { inside = 1; next }
        inside && /^\}/ { inside = 0 }
        inside && /^    pub fn / { n++ }
        END { print n + 0 }'
}

# stdin: one Cargo.toml; stdout: its `[features]` entries other than
# `default`.
feature_count() {
    awk '/^\[/ { inside = ($0 == "[features]"); next }
         inside && /^[A-Za-z0-9_-]+[[:space:]]*=/ && $1 != "default" { n++ }
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

# Options removed and added, summed over the two tables below.
removed=0
added=0
# $1: row name; $2: base count; $3: tree count. Prints the row and
# tallies the delta.
option_row() {
    printf '%-22s %10d %10d %+8d\n' "$1" "$2" "$3" "$(($3 - $2))"
    if (($3 < $2)); then removed=$((removed + $2 - $3)); else added=$((added + $3 - $2)); fi
}

echo
printf '%-22s %10s %10s %8s\n' "config fields" "$BASE" "tree" "delta"
while read -r name path; do
    b=$(read_file "$BASE" "$path" 2>/dev/null | field_count "$name")
    t=$(read_file tree "$path" 2>/dev/null | field_count "$name")
    option_row "$name" "$b" "$t"
done <<'EOF'
ServerConfig crates/slamshare-core/src/server.rs
LoadConfig crates/slamshare-core/src/load.rs
SessionConfig crates/slamshare-core/src/session.rs
BaselineConfig crates/slamshare-core/src/baseline.rs
LifecycleConfig crates/slamshare-core/src/lifecycle.rs
SoakConfig crates/slamshare-core/src/lifecycle.rs
MappingConfig crates/slamshare-slam/src/mapping.rs
TrackerConfig crates/slamshare-slam/src/tracking.rs
OrbExtractorConfig crates/slamshare-features/src/extractor.rs
DatasetConfig crates/slamshare-sim/src/dataset.rs
EOF

echo
printf '%-22s %10s %10s %8s\n' "cargo features" "$BASE" "tree" "delta"
for manifest in $( (git ls-tree -r --name-only "$BASE" -- crates; find crates -name Cargo.toml) |
    grep -E '^crates/[^/]+/Cargo\.toml$' | sort -u); do
    b=$(read_file "$BASE" "$manifest" 2>/dev/null | feature_count)
    t=$(read_file tree "$manifest" 2>/dev/null | feature_count)
    option_row "$(cut -d/ -f2 <<<"$manifest")" "$b" "$t"
done
printf '%-22s %10s %10s\n' "options" "removed" "added"
printf '%-22s %10d %10d\n' "" "$removed" "$added"

echo
printf '%-22s %10s %10s %8s\n' "api surface" "$BASE" "tree" "delta"
server=crates/slamshare-core/src/server.rs
b=$(read_file "$BASE" "$server" 2>/dev/null | pub_fn_count EdgeServer)
t=$(read_file tree "$server" | pub_fn_count EdgeServer)
printf '%-22s %10d %10d %+8d\n' "EdgeServer pub fns" "$b" "$t" "$((t - b))"

# stdin: one Rust file; stdout: its non-test calls of the GPU cost model's
# free function `charge(` — not methods such as `cpu.charge(`, not the
# definition, not `//` comment lines.
charge_sites() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
         !done && !/^[[:space:]]*\/\// && !/fn charge\(/ { n += gsub(/(^|[^._a-zA-Z0-9])charge\(/, "&") }
         END { print n + 0 }'
}

echo
crate_table "model::charge( sites" charge_sites
