#!/usr/bin/env python3
"""End-to-end benchmark of the QAOA-in-QAOA library.

Builds the perfbench binary from this checkout's sources (into
.bench_build/perfbench), runs one workload and prints its metrics; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Run from the repository root:

    python3 perfbench/run.py --service-rate 35 --workload qaoa2_sim --seed 1 --seconds 30 --trace 0

The exit code is 0 only when the run completed and every correctness check
passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# Set-up-only processes per untraced run; setup_s is the median over these
# and the main run, each a fresh process paying every lazy init. Probes run
# until the budget is spent (cheap set-ups get more samples), within bounds.
SETUP_PROBES_MIN = 4
SETUP_PROBES_MAX = 24
SETUP_PROBE_BUDGET_S = 4.0
# Worker threads of the library's pool: the reference machine has 4 cores.
POOL_THREADS = 4
# Wall-clock cap of one perfbench process (the whole run must end in 180 s).
PROCESS_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("repository sources (CMakeLists.txt, src/) not found in " + str(ROOT))
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(step))


def metric_spec(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found in " + str(ROOT))
    spec = json.loads(spec_path.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_binary(args, extra):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--service-rate", str(args.service_rate)] + extra
    env = dict(os.environ, QQ_THREADS=str(POOL_THREADS))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s: %s" % (PROCESS_TIMEOUT_S, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed a malformed result: " + lines[-1][:200])
    return proc.returncode, result


def source_digest():
    """Digest of every library and benchmark source, so recorded cut values
    are only compared between runs of the same code."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cuts_repeat_across_runs(args, cuts):
    """The cut values of a workload at a fixed seed must be the same in
    every run (traced or not) of the same code. The first run records them
    under .bench_build; later runs compare."""
    if not cuts:
        return True
    record = BUILD / "cuts" / ("%s-%d-%s.json" % (args.workload, args.seed,
                                                   source_digest()))
    if record.is_file():
        expected = json.loads(record.read_text())
        if expected != cuts:
            print("perfbench: cut values differ from an earlier run at this "
                  "seed (%s)" % record.name, file=sys.stderr)
            return False
        return True
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(cuts, sort_keys=True))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--service-rate", type=float, required=True,
                        help="offered load of service_mix, requests/s")
    args = parser.parse_args()

    spec = metric_spec(args.trace)
    build()

    extra = []
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        extra = ["--trace-out", str(traces / ("%s-%d.json" % (args.workload, args.seed)))]
    code, result = run_binary(args, extra)
    correct = code == 0 and result.get("ok") is True
    for check in result.get("checks", []):
        if not check["ok"]:
            print("perfbench: check failed: %s %s" % (check["name"], check["detail"]),
                  file=sys.stderr)
    correct = cuts_repeat_across_runs(args, result.get("cuts", {})) and correct

    values = dict(result.get("metrics", {}))
    if not args.trace:
        setup = [values.get("setup_s")]
        start = time.monotonic()
        while len(setup) <= SETUP_PROBES_MIN or (
                len(setup) <= SETUP_PROBES_MAX
                and time.monotonic() - start < SETUP_PROBE_BUDGET_S):
            probe_code, probe = run_binary(args, ["--setup-only", "1"])
            correct = correct and probe_code == 0
            setup.append(probe.get("metrics", {}).get("setup_s"))
        if None in setup:
            fail("a set-up probe reported no setup_s")
        values["setup_s"] = statistics.median(setup)

    metrics = {}
    for m in spec:
        if m["name"] not in values:
            fail("perfbench did not report metric " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-36s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    for key, value in sorted(result.get("info", {}).items()):
        print("  info %-31s %s" % (key, value))

    print(json.dumps({"correct": correct,
                      "attempted": int(result.get("attempted", 0)),
                      "failed": int(result.get("failed", 0)),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
