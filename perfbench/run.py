#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs one
workload in one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds the
atlarge libraries and the perfbench binary (Release) under .bench_build/;
later runs reuse that build. The last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; a per-layer metric of a layer the workload does not exercise reads 0.
Provenance (source id, build type, compiler, nproc, load average) goes to
standard error and to .bench_out/<workload>-seed<n>[-trace]-result.json.

Extra arguments after the four above are passed to the binary unchanged
(--threads, --reduced, --goldens, --write-goldens; see src/main.cpp).
"""

import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git sha of the checkout, or a hash of the library sources outside git."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def build():
    for needed in ("src/CMakeLists.txt", "include/atlarge", "bench/campaigns"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a full checkout: %s is missing" % needed)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(max(1, os.cpu_count() or 1)), "--target", "perfbench"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd), 1)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main(argv):
    args = list(argv)
    if "--workload" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    e2e, layers = declared_metrics()
    build()

    cmd = [BINARY] + args + ["--source", source_id()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload exceeded %d s" % RUN_TIMEOUT_S, 1)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode, proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("perfbench printed no result", 1)
    result = json.loads(lines[-1])

    # The binary prints what the workload measured; check it against the
    # declaration and fill the layers this workload does not exercise.
    declared = layers if traced else e2e
    names = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if name not in names:
            fail("undeclared metric %s" % name, 1)
        if entry["unit"] != names[name]:
            fail("metric %s has unit %s, declared %s"
                 % (name, entry["unit"], names[name]), 1)
    if not traced:
        missing = [n for n in names if n not in metrics]
        if missing:
            fail("end-to-end metrics missing: " + ", ".join(missing), 1)
    ordered = {}
    for m in declared:
        ordered[m["name"]] = metrics.get(m["name"],
                                         {"value": 0, "unit": m["unit"]})
    result["metrics"] = ordered
    print("perfbench: %s took %.1f s" % (args[args.index("--workload") + 1],
                                          time.monotonic() - start),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
