#!/usr/bin/env bash
# Perf gate over two soc-benchmark result files.
#
#   .github/scripts/perf_gate.sh BASELINE CURRENT
#
# BASELINE is the committed benchmark/baseline.json; CURRENT is the file
# `soc-benchmark run --workload all --out CURRENT` wrote (tracing on, the
# default, so the per-layer metrics are present). For each of the four
# workloads every CURRENT run must have
#
#   - `correct` true and `failed` 0;
#   - the baseline's `digest`;
#   - every per-layer metric the baseline marks `"exact": true` equal to
#     the baseline value (work counters are exact on any machine);
#   - `setup_s` and `round_s` at most MAX_SLOWDOWN x the median of the
#     baseline's samples. Wall clock gets a loose bound because CI runners
#     differ from the machine that wrote the baseline; 3.5x fails on
#     order-of-magnitude regressions (an accidentally quadratic merge, a
#     debug build) and not on runner skew.
#
# Prints one line per workload and one per violation. Exit 0 when clean,
# 1 on any violation, 2 on a usage error or unreadable input. Needs jq.
set -euo pipefail

MAX_SLOWDOWN=3.5
WORKLOADS='["fleet_stream", "policy_sweep", "chaos_binned", "cluster"]'

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASELINE CURRENT" >&2
    exit 2
fi

report=$(jq -rn \
    --slurpfile base "$1" \
    --slurpfile cur "$2" \
    --argjson workloads "$WORKLOADS" \
    --argjson factor "$MAX_SLOWDOWN" '
  def median:
    sort | length as $n
    | if $n == 0 then null
      elif $n % 2 == 1 then .[($n - 1) / 2]
      else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
  def num: type == "number";

  $workloads[] as $w
  | [$base[0].runs[] | select(.workload == $w)] as $b
  | [$cur[0].runs[] | select(.workload == $w)] as $c
  | if ($b | length) == 0 then "FAIL \($w): no run in the baseline"
    elif ($c | length) == 0 then "FAIL \($w): no run in the current file"
    else
      ([$b[].digest] | unique) as $digests
      | [$b[0].per_layer | to_entries[] | select(.value.exact == true)] as $exact
      | ({setup_s: ([$b[].setup_s_samples[]] | median),
          round_s: ([$b[].round_s_samples[]] | median)}) as $med
      | $c[] as $r
      | [
          (if $r.correct != true then
             "FAIL \($w): correct is \($r.correct) (failures: \($r.failures | tostring))"
           else empty end),
          (if $r.failed != 0 then "FAIL \($w): failed is \($r.failed), want 0" else empty end),
          (if ($digests | index([$r.digest])) == null then
             "FAIL \($w): digest \($r.digest), baseline \($digests | join(", "))"
           else empty end),
          ($exact[]
           | .key as $k
           | .value.value as $want
           | ($r.per_layer[$k].value) as $got
           | if $got != $want then
               "FAIL \($w): exact \($k) = \($got), baseline \($want)"
             else empty end),
          (("setup_s", "round_s") as $m
           | ($r.end_to_end[$m].value) as $got
           | if ($got | num | not) or ($med[$m] | num | not) then
               "FAIL \($w): \($m) = \($got), baseline median \($med[$m])"
             elif $got > $factor * $med[$m] then
               "FAIL \($w): \($m) = \($got) s is \($got / $med[$m] * 100 | round / 100)x the baseline median \($med[$m]) s (bound \($factor)x)"
             else empty end)
        ] as $bad
      | if ($bad | length) > 0 then $bad[]
        else
          "ok   \($w): digest \($r.digest), \($exact | length) exact counters, "
          + "setup_s \($r.end_to_end.setup_s.value / $med.setup_s * 100 | round / 100)x, "
          + "round_s \($r.end_to_end.round_s.value / $med.round_s * 100 | round / 100)x of the baseline median"
        end
    end
') || exit 2

echo "$report"
violations=$(grep -c '^FAIL ' <<<"$report" || true)
echo "perf gate: $(jq -n --argjson w "$WORKLOADS" '$w | length') workloads, $violations violation(s)"
[ "$violations" -eq 0 ]
