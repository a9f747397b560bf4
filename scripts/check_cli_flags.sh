#!/usr/bin/env bash
# CLI flag strictness (registered with ctest as `check_cli_flags`): a flag
# a command does not read, and a count flag outside [0, 1024], must each
# end the process with a usage error (exit 2, `error: ...` on stderr) —
# never run something else, and never die from a signal. A bad count
# inside a flag value (`--hist=TAG:-1`) is a runtime error (exit 1).
#
# Count cases use only -1 and the cap + 1, and every rejected command is
# refused before it creates a thread, so nothing here starts a large
# number of threads. Where a command would read a file before sizing its
# pool, the file is missing on purpose: a broken check then fails with a
# runtime error (exit 1) instead of creating the threads.
#
# Usage: check_cli_flags.sh <gks-binary> <gks_client-binary>

set -euo pipefail

gks="${1:?usage: check_cli_flags.sh <gks-binary> <gks_client-binary>}"
client="${2:?usage: check_cli_flags.sh <gks-binary> <gks_client-binary>}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

fail() { echo "check_cli_flags: FAILED — $*" >&2; exit 1; }

cases=0
# expect_exit <code> <stderr-needle> <command...>
expect_exit() {
  local want="$1" needle="$2"
  shift 2
  local code=0
  "$@" > "$work/out" 2> "$work/err" || code=$?
  [[ "$code" -eq "$want" ]] \
    || fail "'$*' exited $code, want $want: $(cat "$work/err")"
  grep -qF -- "$needle" "$work/err" \
    || fail "'$*' stderr lacks '$needle': $(cat "$work/err")"
  cases=$((cases + 1))
}
expect_usage_error() { expect_exit 2 "$@"; }

"$gks" generate dblp "$work/d.xml" --scale=0.002 >/dev/null
"$gks" index "$work/d.gksidx" "$work/d.xml" >/dev/null
printf 'database\n' > "$work/queries.txt"

# Positive control: the correctly spelled flag runs.
"$gks" search "$work/d.gksidx" database --explain-json > "$work/ok.json" \
  || fail "search --explain-json exited non-zero"

# Unknown flags: the removed --format and a typo.
expect_usage_error "unknown flag: --format" \
  "$gks" index "$work/v1.gksidx" "$work/d.xml" --format=v1
[[ ! -e "$work/v1.gksidx" ]] || fail "index --format=v1 still wrote a file"
expect_usage_error "unknown flag: --explian-json" \
  "$gks" search "$work/d.gksidx" database --explian-json
expect_usage_error "unknown flag: --format" \
  "$gks" shard "$work/shards" "$work/d.xml" --shards=1 --format=v1
expect_usage_error "unknown flag: --thread" \
  "$gks" serve "$work/d.gksidx" --port=0 --thread=2
expect_usage_error "unknown flag: --conections" \
  "$client" --queries="$work/queries.txt" --conections=2

# Count flags: -1 and the cap + 1.
for value in -1 1025; do
  expect_usage_error "--threads must be" \
    "$gks" batch "$work/missing.gksidx" "$work/queries.txt" --threads="$value"
  expect_usage_error "--repeat must be" \
    "$gks" batch "$work/missing.gksidx" "$work/queries.txt" --repeat="$value"
  expect_usage_error "--threads must be" \
    "$gks" serve "$work/d.gksidx" --port=0 --threads="$value"
  expect_usage_error "--connections must be" \
    "$gks" client --queries="$work/missing.txt" --connections="$value"
  expect_usage_error "--connections must be" \
    "$client" --queries="$work/missing.txt" --connections="$value"
  expect_usage_error "--shards must be" \
    "$gks" shard "$work/shards" "$work/missing.xml" --shards="$value"
done
expect_usage_error "--threads must be" \
  "$gks" index "$work/t.gksidx" "$work/d.xml" --threads=-1
expect_usage_error "--threads must be" \
  "$gks" shard "$work/shards" "$work/d.xml" --threads=-1
# A count inside a flag value: the histogram's bucket count.
expect_exit 1 "histogram needs 1 to 1024 buckets" \
  "$gks" analyze "$work/d.gksidx" database --hist=year:-1

echo "check_cli_flags: OK ($cases rejected command lines)"
