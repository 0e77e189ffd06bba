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

exit $failed
