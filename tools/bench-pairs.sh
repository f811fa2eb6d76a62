#!/usr/bin/env bash
# Alternated parent/change pairs of the repository benchmark.
#
#   tools/bench-pairs.sh PARENT CHANGE WORKLOAD [--seconds S] [--seeds "10 11 …"]
#                        [--trace 0|1] [--work DIR]
#
# PARENT and CHANGE are git revisions (for uncommitted work, stage it and
# pass `$(git stash create)`). Each is exported with `git archive` into
# DIR/<revision> (default DIR: target/bench-pairs) and its cafc-benchmark
# built there with `cargo build --release`, so neither side's build sees
# the other's sources. Then one pair runs per seed, both sides pinned to
# one core as crates/benchmark/run.sh does; pair i runs the parent first
# when i is even and the change first when i is odd.
#
# Output, on stdout:
# * one JSON line per run: workload, seconds, pair, seed, side, run_order
#   (position within the pair), digest (the run's first `digest:` line)
#   and last_line (the run's final JSON line); a traced run adds the
#   self_time_ms object of its trace file;
# * one summary line per end-to-end metric of BENCHMARK.json: each side's
#   median and quartiles (linear interpolation between closest ranks) and
#   the pairs the change won, by the metric's `better` direction. A traced
#   run reports per-layer metrics instead, so `--trace 1` prints none.
#
# A run that exits non-zero, or whose last line lacks `"correct": true`,
# stops the script with exit status 1 and names the run's output file.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '2,5p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -ge 3 ]] || usage
parent="$1" change="$2" workload="$3"
shift 3
seconds=20 seeds="10 11 12 13 14 15 16 17 18 19" trace=0 work="target/bench-pairs"
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --seconds) seconds="$2" ;;
    --seeds) seeds="$2" ;;
    --trace) trace="$2" ;;
    --work) work="$2" ;;
    *) usage ;;
  esac
  shift 2
done

# Export REV into its own directory and build its benchmark there; print
# the binary's path.
build() {
  local rev dir
  rev="$(git rev-parse --short=12 "$1^{commit}")"
  dir="$work/$rev"
  if [[ ! -x "$dir/target/release/cafc-benchmark" ]]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$rev" | tar -x -C "$dir"
    (cd "$dir" && CARGO_TARGET_DIR=target cargo build --release --offline --quiet -p cafc-benchmark) >&2
  fi
  echo "$dir/target/release/cafc-benchmark"
}

declare -A bin
for side in parent change; do
  rev="$parent"
  [[ "$side" == change ]] && rev="$change"
  bin[$side]="$(build "$rev")"
  [[ -x "${bin[$side]}" ]] || { echo "bench-pairs: no $side benchmark built from $rev" >&2; exit 1; }
done
cpu="$(taskset -pc $$ | sed 's/.*[ ,-]//')"
mkdir -p "$work/runs"

# One run of SIDE at SEED as pair PAIR, position ORDER: its JSON line.
run() {
  local side="$1" seed="$2" pair="$3" order="$4"
  local out="$work/runs/$workload-$pair-$seed-$side.out"
  local trace_file="$work/runs/$workload-$pair-$seed-$side.trace.json"
  local args=(--workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
  [[ "$trace" == 1 ]] && args+=(--trace-file "$trace_file")
  # `run` executes inside `$(…)`, where bash ignores `set -e`: a failed
  # run must stop the script here, not enter the medians.
  if ! taskset -c "$cpu" "${bin[$side]}" "${args[@]}" >"$out" 2>&1; then
    echo "bench-pairs: $side run at seed $seed exited non-zero; see $out" >&2
    return 1
  fi
  local digest last extra=""
  digest="$(grep -m1 ' digest: ' "$out" | sed 's/\\/\\\\/g; s/"/\\"/g' || true)"
  last="$(tail -n 1 "$out")"
  if [[ "$last" != *'"correct": true'* ]]; then
    echo "bench-pairs: $side run at seed $seed did not end with \"correct\": true; see $out" >&2
    return 1
  fi
  if [[ "$trace" == 1 ]]; then
    extra=", $(grep -m1 '^"self_time_ms": ' "$trace_file" | sed 's/,[[:space:]]*$//')"
  fi
  printf '{"workload": "%s", "seconds": %s, "pair": %d, "seed": %d, "side": "%s", "run_order": %d, "digest": "%s", "last_line": %s%s}\n' \
    "$workload" "$seconds" "$pair" "$seed" "$side" "$order" "$digest" "$last" "$extra"
}

lines=()
pair=0
for seed in $seeds; do
  if ((pair % 2 == 0)); then order=(parent change); else order=(change parent); fi
  for i in 0 1; do
    line="$(run "${order[$i]}" "$seed" "$pair" "$i")" || exit 1
    echo "$line"
    lines+=("$line")
  done
  pair=$((pair + 1))
done

# The end-to-end metrics and their directions, from BENCHMARK.json.
metrics="$(tr -d '\n' <BENCHMARK.json | sed 's/.*"end_to_end": *\[//; s/\].*//' |
  grep -o '"name": *"[^"]*"[^}]*"better": *"[^"]*"' |
  sed 's/"name": *"\([^"]*\)".*"better": *"\([^"]*\)"/\1 \2/')"

printf '%s\n' "${lines[@]}" | awk -v workload="$workload" -v metrics="$metrics" '
  function value(line, metric,   m) {
    if (match(line, "\"" metric "\": *\\{\"value\": *[-0-9.eE+]+")) {
      m = substr(line, RSTART, RLENGTH)
      sub(/.*"value": */, "", m)
      return m + 0
    }
    return ""
  }
  function quantile(xs, n, p,   h, lo) {
    h = (n - 1) * p
    lo = int(h)
    return lo + 1 < n ? xs[lo] + (h - lo) * (xs[lo + 1] - xs[lo]) : xs[lo]
  }
  function sort(xs, n,   i, j, t) {
    for (i = 1; i < n; i++)
      for (j = i; j > 0 && xs[j - 1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t }
  }
  {
    side = ($0 ~ /"side": "parent"/) ? "parent" : "change"
    match($0, /"pair": [0-9]+/)
    pair = substr($0, RSTART + 8, RLENGTH - 8) + 0
    run[side, pair] = $0
    if (pair + 1 > pairs) pairs = pair + 1
  }
  END {
    n = split(metrics, words, /[ \n]+/)
    for (w = 1; w + 1 <= n; w += 2) {
      metric = words[w]; better = words[w + 1]
      delete ps; delete cs
      wins = 0; missing = 0
      for (p = 0; p < pairs; p++) {
        ps[p] = value(run["parent", p], metric)
        cs[p] = value(run["change", p], metric)
        if (ps[p] == "" || cs[p] == "") missing = 1
        if ((better == "higher" && cs[p] > ps[p]) || (better == "lower" && cs[p] < ps[p])) wins++
      }
      if (missing || pairs == 0) continue
      sort(ps, pairs); sort(cs, pairs)
      pm = quantile(ps, pairs, 0.5); cm = quantile(cs, pairs, 0.5)
      printf "{\"summary\": true, \"workload\": \"%s\", \"metric\": \"%s\", \"better\": \"%s\", \"pairs\": %d, \"change_wins\": %d, \"parent_median\": %.10g, \"parent_q1\": %.10g, \"parent_q3\": %.10g, \"change_median\": %.10g, \"change_q1\": %.10g, \"change_q3\": %.10g, \"median_ratio\": %.10g}\n",
        workload, metric, better, pairs, wins, pm, quantile(ps, pairs, 0.25), quantile(ps, pairs, 0.75),
        cm, quantile(cs, pairs, 0.25), quantile(cs, pairs, 0.75), pm != 0 ? cm / pm : 0
    }
  }'
