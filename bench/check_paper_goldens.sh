#!/usr/bin/env bash
# Pins the paper reproduction byte for byte: runs every deterministic
# paper artifact from a build tree and diffs its stdout against the
# committed golden. Use a Release build; the set takes a few seconds.
#
#   bench/check_paper_goldens.sh [build-dir]           # diff (default: build)
#   bench/check_paper_goldens.sh [build-dir] --update  # rewrite the goldens
#
# The artifacts are the eleven deterministic harnesses (fig1/2/3/7/9,
# sec67, table5/6/7/9, table_eco), table7_serverless --faults=20,
# sec67_autoscaling --faults=10, table8_graphalytics and the six
# examples/. Goldens live in bench/goldens/paper/, except
# table9_portfolio's, which is bench/goldens/table9_portfolio.txt.
#
# One filter: table8 prints one host-time line, "measured native run:
# load <s>, compute <s>", and that line is deleted before the diff. Every
# other line of every artifact is compared exactly as printed.
set -euo pipefail
shopt -s lastpipe  # check runs in this shell, so its counters persist

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
mode="${2:-}"
paper="$root/bench/goldens/paper"
got_dir="$(mktemp -d)"
trap 'rm -rf "$got_dir"' EXIT

checked=0
failed=0
# check <golden>: compares stdin (one artifact's stdout) with <golden>.
check() {
  local golden="$1"
  local got="$got_dir/$(basename "$golden")"
  cat > "$got"
  checked=$((checked + 1))
  if [[ "$mode" == --update ]]; then
    cp "$got" "$golden"
  elif ! diff -u "$golden" "$got"; then
    failed=$((failed + 1))
  fi
}

b="$build/bench"
for h in fig1_keywords fig2_design_articles fig3_review_scores \
         fig7_exploration fig9_refarch sec67_autoscaling table5_p2p \
         table6_mmog table7_serverless table_eco; do
  "$b/$h" | check "$paper/$h.txt"
done
"$b/table9_portfolio" | check "$root/bench/goldens/table9_portfolio.txt"
"$b/table7_serverless" --faults=20 |
  check "$paper/table7_serverless_faults20.txt"
"$b/sec67_autoscaling" --faults=10 |
  check "$paper/sec67_autoscaling_faults10.txt"
"$b/table8_graphalytics" | sed '/^measured native run:/d' |
  check "$paper/table8_graphalytics.txt"
for x in datacenter_scheduling graphalytics_run mmog_operations p2p_swarm \
         quickstart serverless_pipeline; do
  "$build/examples/$x" | check "$paper/example_$x.txt"
done

if [[ "$mode" == --update ]]; then
  echo "paper goldens: wrote $checked artifacts"
elif ((failed > 0)); then
  echo "paper goldens: $failed of $checked artifacts differ" >&2
  exit 1
else
  echo "paper goldens: all $checked artifacts match"
fi
