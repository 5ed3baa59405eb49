#!/usr/bin/env python3
"""Self-check of the repository benchmark, on a reduced-size pass of every
workload (a few seconds in all):

  * a traced pass prints every per-layer metric its workload measures, with
    the unit BENCHMARK.json declares, and an untraced pass through run.py
    prints every end-to-end metric;
  * outputs repeat: goldens recorded by one run are met by a second run, at
    2 threads and at 1 thread;
  * exact counts (unit "count") are identical across those runs;
  * a deliberately corrupted golden counts as a failed operation.

    python3 perfbench/tests/selfcheck.py

Run it from the repository root; it builds through perfbench/run.py and
writes only under .bench_out/selfcheck/.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "cmake", "perfbench")
OUT = os.path.join(ROOT, ".bench_out", "selfcheck")

# The layers each workload exercises, as metric-name prefixes.
LAYERS = {
    "table9-portfolio": ("sched.baseline_s", "sched.order_s", "sched.passes",
                         "sched.tasks", "portfolio."),
    "sharded-worlds": ("sharded.", "mmog.", "p2p.", "eco."),
    "scenario-campaign": ("trace.", "replay.", "exp.", "sched.replay_s"),
    "graphalytics": ("graph.",),
}

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run_binary(workload, *extra):
    """Runs the built perfbench binary directly: its raw result, before
    run.py fills the layers a workload does not exercise."""
    cmd = [BINARY, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", "1", "--reduced", "--out-dir", OUT] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("perfbench failed: " + " ".join(cmd))
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(result, declared):
    return {n: m["value"] for n, m in result["metrics"].items()
            if declared[n] == "count"}


def main():
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload, prefixes in LAYERS.items():
        # run.py builds the binary and checks the end-to-end metric set.
        done = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "2",
             "--seconds", "1", "--trace", "0", "--reduced", "--out-dir", OUT],
            cwd=ROOT, capture_output=True, text=True, timeout=1800)
        check(done.returncode == 0, workload + ": run.py exits 0")
        e2e = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        check(sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"]),
              workload + ": every end-to-end metric printed")

        golden = os.path.join(OUT, workload + ".golden")
        first = run_binary(workload, "--write-goldens", golden)
        check(first["failed"] == 0, workload + ": recording run has no failures")

        expected = {n for n in declared
                    if n == "bench.trace_overhead" or n.startswith(prefixes)}
        printed = set(first["metrics"])
        check(printed == expected,
              workload + ": prints exactly its per-layer metrics"
              + (" (missing %s, extra %s)" % (sorted(expected - printed),
                                              sorted(printed - expected))
                 if printed != expected else ""))
        check(all(m["unit"] == declared[n] for n, m in first["metrics"].items()),
              workload + ": units match BENCHMARK.json")

        again = run_binary(workload, "--goldens", golden)
        serial = run_binary(workload, "--goldens", golden, "--threads", "1")
        check(again["failed"] == 0 and again["correct"],
              workload + ": second run meets the recorded goldens")
        check(serial["failed"] == 0 and serial["correct"],
              workload + ": 1-thread run meets the 2-thread goldens")
        check(counts(first, declared) == counts(again, declared),
              workload + ": exact counts repeat across runs")
        check(counts(first, declared) == counts(serial, declared),
              workload + ": exact counts equal at 1 and 2 threads")

        with open(golden) as f:
            lines = f.read().splitlines()
        op, hexdigest = lines[0].split()
        lines[0] = op + " " + ("0" if hexdigest[0] != "0" else "1") + hexdigest[1:]
        corrupt = golden + ".corrupt"
        with open(corrupt, "w") as f:
            f.write("\n".join(lines) + "\n")
        bad = run_binary(workload, "--goldens", corrupt)
        check(bad["failed"] >= 1 and not bad["correct"],
              workload + ": a corrupted golden counts as a failed operation")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
