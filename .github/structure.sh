#!/usr/bin/env bash
# Runs the structural guards: every row of structure.tsv and every named
# check below. Each is first shown to fire on a planted line or fixture,
# then run on the tree; a path it reads that is missing fails it, so a
# rename cannot turn a guard into a no-op. Prints one FAIL line per broken
# guard and exits 1 if there is any.
#
#   bash .github/structure.sh      (tier-1 runs it: cargo test --test structure)
set -uo pipefail
cd "$(dirname "$0")/.."
plots=$(mktemp -d)
trap 'rm -rf "$plots"' EXIT
failed=0
fail() {
    printf 'FAIL %s: %s\n' "$1" "$2"
    failed=1
}

# scan ROOT PATTERN EXEMPTION FILE... (grep options in the array `opts`):
# prints the hits the exemption leaves; 0 = none, 1 = some, 2 = grep error.
scan() {
    local root=$1 pattern=$2 exempt=$3 out
    shift 3
    out=$(cd "$root" && grep -rnHE "${opts[@]}" -e "$pattern" -- "$@" 2>&1)
    case $? in
        1) return 0 ;;
        0) [[ $exempt == - ]] || out=$(grep -v -e "$exempt" <<<"$out") ;;
        *) printf '%s\n' "$out"; return 2 ;;
    esac
    [[ -z $out ]] || { printf '%s\n' "$out"; return 1; }
}

while IFS=$'\t' read -r name pattern paths exempt plant_at plant why; do
    [[ -z $name || $name == '#'* ]] && continue
    [[ -n $why ]] || { fail "$name" 'the row has fewer than seven fields'; continue; }
    set -f
    words=($paths)
    set +f
    opts=() files=() inside=0
    for w in "${words[@]}"; do
        if [[ $w == -* ]]; then opts+=("$w"); else files+=($w); fi
    done
    for f in "${files[@]}"; do
        [[ $plant_at == "$f" || $plant_at == "$f"/* ]] && inside=1
    done
    ((inside)) || { fail "$name" "$plant_at is not among the paths it scans"; continue; }
    mkdir -p "$plots/$name/$(dirname "$plant_at")"
    printf '%s\n' "$plant" >"$plots/$name/$plant_at"
    scan "$plots/$name" "$pattern" "$exempt" "$plant_at" >/dev/null
    (($? == 1)) || fail "$name" "its planted line is not caught: $plant"
    hits=$(scan . "$pattern" "$exempt" "${files[@]}")
    case $? in
        1) fail "$name" "the tree matches it:"$'\n'"$hits" ;;
        2) fail "$name" "$hits" ;;
    esac
done <.github/structure.tsv

# Named checks: the guards that are more than one grep. Each runs as a CI
# step does, under `bash -eo pipefail`, and fails by a non-zero status.

# An attempt seed carries an owner, not a group or a policy: a request's
# record names its owner, and every attempt installs the one rule table.
attempt_seed() {
    seed=$(sed -n '/^pub(crate) struct AttemptSeed {/,/^}/p' crates/net/src/ledger.rs)
    grep -qE '^\s*pub\(crate\) owner: Owner,' <<< "$seed"
    ! grep -nE '^\s*(pub(\([a-z]+\))? )?(group|policy):' <<< "$seed"
}

# No per-node reservation table beside the ledger (node-table greps for
# its names).
node_file() {
    test ! -e crates/net/src/node.rs
}

# One hardware profile per network, behind the FEU handle: a link, its
# EGPs and its MHPs store no config struct, only the scalars they read.
# `EgpConfig`, the EGP's construction input, may hold the scenario.
profile_fields() {
    awk '
      /^[ \t]*(pub(\([a-z]+\))? )?struct [A-Za-z_0-9]+.*\{[ \t]*$/ {
        inside = ($0 !~ /struct EgpConfig /); next
      }
      /^[ \t]*}[ \t]*$/ { inside = 0 }
      inside && /^[ \t]*(pub(\([a-z]+\))? )?[a-z_][a-z_0-9]*:.*(LinkConfig|EgpConfig|ScenarioParams)([^A-Za-z_0-9]|$)/ {
        print FILENAME ":" FNR ": " $0; bad = 1
      }
      END { exit bad }
    ' crates/sim/src/link.rs crates/egp/src/egp.rs crates/phys/src/mhp.rs
}

# DESIGN.md holds the paper deviations that code and docs cite by name, so
# it may not go missing while anything cites it.
design_doc() {
    cited=$(grep -rlI --exclude-dir=target 'DESIGN\.md' crates tests examples benchmark README.md ARCHITECTURE.md) ||
        (($? == 1))
    [[ -z $cited || -f DESIGN.md ]] || { printf 'DESIGN.md is missing but cited by:\n%s\n' "$cited"; false; }
}

# ARCHITECTURE.md points into the code by `module::symbol` or
# `crate::module::symbol`, where the module is a file crates/*/src/*.rs: the
# symbol must still be a fn, type, const, static or mod its module defines (a
# module name two crates share resolves in either).
architecture_symbols() {
    local f mods= crates= cite path module bad=0 files
    for f in crates/*/src/*.rs; do
        f=${f##*/}
        [[ $f == lib.rs ]] || mods+="|${f%.rs}"
    done
    for f in crates/*/; do
        f=${f%/}
        crates+="|${f##*/}"
    done
    for cite in $(grep -oE "\`((${crates#|})::)?(${mods#|})::[A-Za-z_0-9]+\`" ARCHITECTURE.md | tr -d '`' | sort -u); do
        path=${cite%::*}
        module=${path##*::}
        if [[ $path == *::* ]]; then files=("crates/${path%%::*}/src/$module.rs"); else files=(crates/*/src/"$module".rs); fi
        grep -qsE "(fn|struct|enum|trait|type|const|static|mod) ${cite##*::}\b" "${files[@]}" || {
            echo "ARCHITECTURE.md cites $cite, which ${files[*]} does not define"
            bad=1
        }
    done
    ((bad == 0))
}

# Every public fn has a caller outside the tests. The census lists each
# `pub` / `pub(crate)` fn of crates/ (without crates/bench) and examples/
# whose name occurs nowhere else in their non-test code: each `#[cfg(test)]`
# item is skipped (not the rest of its file), and so are comments, since a
# doc line naming a fn does not call it. Such a fn must be listed, with its
# caller, in dead_pub_fns.allow, and every listed name must be such a fn.
# The census matches names, so a dead fn that shares its name with another
# use stays hidden.
dead_pub_fns() {
    export LC_ALL=C
    census=$(find crates examples -name '*.rs' ! -path 'crates/bench/*' | sort | xargs -r awk '
      FNR == 1 { skip = 0 }
      skip == 1 {
        if ($0 ~ /^[ \t]*(#|\/\/)/) next
        line = $0; sub(/\/\/.*/, "", line)
        opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
        skip = (opens == closes && (opens > 0 || line ~ /;[ \t]*$/)) ? 0 : 2
        next
      }
      skip == 2 { if (index($0, ind "}") == 1) skip = 0; next }
      /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { match($0, /^[ \t]*/); ind = substr($0, 1, RLENGTH); skip = 1; next }
      {
        line = $0; sub(/\/\/.*/, "", line)
        if (match(line, /^[ \t]*pub(\([a-z]+\))? ((const|unsafe|async) )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
          name = substr(line, RSTART, RLENGTH); sub(/.* fn /, "", name)
          if (!(name in at)) at[name] = FILENAME ":" FNR
        }
        n = split(line, word, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (word[i] != "") seen[word[i]]++
      }
      END { for (name in at) if (seen[name] == 1) print name "\t" at[name] }
    ' | sort)
    listed=$(sed '/^#/d; /^$/d; s/\t.*//' .github/dead_pub_fns.allow | sort)
    unlisted=$(join -t $'\t' -v 1 <(printf '%s\n' "$census" | sed '/^$/d') <(printf '%s\n' "$listed" | sed '/^$/d'))
    stale=$(comm -13 <(printf '%s\n' "$census" | cut -f1 | sed '/^$/d') <(printf '%s\n' "$listed" | sed '/^$/d'))
    [[ -z $unlisted ]] || printf 'uncalled outside the tests, not in dead_pub_fns.allow:\n%s\n' "$unlisted"
    [[ -z $stale ]] || printf 'in dead_pub_fns.allow, but not an uncalled pub fn:\n%s\n' "$stale"
    [[ -z $unlisted && -z $stale ]]
}

# run CHECK [ROOT]: the check's output; its status is the check's.
run() {
    (cd "${2:-.}" && bash --noprofile --norc -eo pipefail -c "$(declare -f "$1"); $1" 2>&1)
}

# prove CHECK READS FILE CLEAN PLANT...: in a root holding (empty) what
# CHECK reads, CHECK passes with CLEAN at FILE (- for no file) and fails
# with each PLANT there; then it must pass on the tree.
prove() {
    local check=$1 file=$3 clean=$4 root=$plots/$1 path out
    for path in $2; do
        [[ -e $path ]] || { fail "$check" "it reads $path, which is missing"; return; }
        if [[ -d $path ]]; then mkdir -p "$root/$path"; else mkdir -p "$root/$(dirname "$path")"; : >"$root/$path"; fi
    done
    shift 4
    [[ $clean == - ]] || printf '%s\n' "$clean" >"$root/$file"
    run "$check" "$root" >/dev/null || fail "$check" 'it fails on its clean fixture'
    for plant in "$@"; do
        printf '%s\n' "$plant" >"$root/$file"
        ! run "$check" "$root" >/dev/null || fail "$check" "it passes with $file reading: $plant"
    done
    out=$(run "$check") || fail "$check" "it fails on the tree"$'\n'"$out"
}

seed='pub(crate) struct AttemptSeed {
    pub(crate) owner: Owner,
    pub(crate) fmin: f64,
}'
prove attempt_seed crates/net/src/ledger.rs crates/net/src/ledger.rs "$seed" \
    "${seed/fmin: f64,/policy: Policy,}" "${seed/owner: Owner,/owner: u64,}"
prove node_file crates/net/src crates/net/src/node.rs - 'pub(crate) struct SwapAsapNode;'
egp='pub struct EgpConfig {
    pub scenario: ScenarioParams,
}
pub struct Egp {
    cycle: u64,
}'
prove profile_fields 'crates/sim/src/link.rs crates/egp/src/egp.rs crates/phys/src/mhp.rs' \
    crates/egp/src/egp.rs "$egp" "${egp/cycle: u64,/config: EgpConfig,}"

prove design_doc 'crates tests examples benchmark README.md ARCHITECTURE.md' README.md \
    '# qlink' '# qlink: departures from the paper are in DESIGN.md'
prove architecture_symbols 'ARCHITECTURE.md crates/net/src/engine.rs' ARCHITECTURE.md \
    'One loop (`Network::run`) drains the queue.' 'See `net::engine::Nope`.' 'See `engine::Nope`.'

pub_fns='#[cfg(test)]
mod plain;
pub fn called() {}
impl Plain {
    #[cfg(test)]
    pub fn fixture() {}
    pub(crate) const fn also_called() {}
}
fn caller() {
    called();
    Plain::also_called();
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}'
prove dead_pub_fns 'crates/qlink/src examples .github/dead_pub_fns.allow' crates/qlink/src/lib.rs \
    "$pub_fns" "$pub_fns"$'\npub fn planted_uncalled() {}' \
    "${pub_fns/fn t() \{\}/fn t() { super::tested_only(); \}}"$'\npub fn tested_only() {}' \
    "${pub_fns/called();/called(); \/\/ commented_only()}"$'\npub(crate) fn commented_only() {}'
prove dead_pub_fns 'crates/qlink/src/lib.rs examples .github/dead_pub_fns.allow' \
    .github/dead_pub_fns.allow - $'gone\tno longer defined'

exit $failed
