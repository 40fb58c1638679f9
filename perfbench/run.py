#!/usr/bin/env python3
"""Builds and runs the SPNC benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload speaker-offline --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
`spnc-perfbench` from the checkout's sources into `.bench_build` (or
$CARGO_TARGET_DIR); later runs only re-check the build. The last line of
standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics (plus the tracing overhead). The
exit code is 0 only for a correct run; a run whose outputs disagree with
the oracle, whose deterministic counters drift, or whose load generator
fell behind its schedule exits non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG = os.path.join(HERE, "config.json")
# The metric names and units every run reports.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BINARY = "spnc-perfbench"
# A run must end within 180 s; keep a margin for the reporting below.
RUN_LIMIT_S = 170
FIRST_BUILD_LIMIT_S = 880


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group (the
    host compilers the cpp backend starts included) on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s did not finish within %d s" % (os.path.basename(cmd[0]),
                                                timeout))
    return proc.returncode, out


def build(out_dir):
    """Configures (once) and builds spnc-perfbench; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", BINARY, "-j4"])
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = run_bounded(step, FIRST_BUILD_LIMIT_S, stdout=log,
                                  stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                die("build failed (log: %s)" % log_path)
    return os.path.join(out_dir, BINARY)


def source_hash():
    """Hash of every source the measured program is built from, keying
    the deterministic-counter record."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def cpu_ticks():
    """Aggregate CPU tick counters of the host (user ... steal), or None."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor stole while the run measured."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return round(delta[7] / max(sum(delta), 1), 4)


def run_stamp(result, src_hash, steal):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": result.get("compiler"),
            "build_type": result.get("build_type"), "commit": commit,
            "source_hash": src_hash, "host_steal": steal}


def check_counters(out_dir, src_hash, workload, seed, counters):
    """Compares the deterministic counters with an earlier run of the same
    sources, workload and seed; returns the names that drifted."""
    record_dir = os.path.join(out_dir, "perfbench-counters")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, "%s-%s-seed%d.json" %
                        (src_hash, workload, seed))
    seen = {}
    if os.path.exists(path):
        with open(path) as handle:
            seen = json.load(handle)
    drift = sorted(name for name, value in counters.items()
                   if name in seen and seen[name] != value)
    seen.update(counters)
    with open(path, "w") as handle:
        json.dump(seen, handle, indent=1, sort_keys=True)
    return drift


def main():
    with open(CONFIG) as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no SPNC sources next to %s; run from a full checkout" % HERE)
    out_dir = build_dir()
    first_build = not os.path.exists(os.path.join(out_dir, BINARY))
    binary = build(out_dir)
    built = time.monotonic()

    work_root = os.path.join(out_dir, "perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    trace_out = ""
    if args.trace:
        trace_dir = os.path.join(out_dir, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.json" %
                                 (args.workload, args.seed))
    limit = FIRST_BUILD_LIMIT_S if first_build else RUN_LIMIT_S
    budget = limit - (built - started)
    env = dict(os.environ, TMPDIR=work)
    ticks = cpu_ticks()
    try:
        code, out = run_bounded(
            [binary, "--benchmark", BENCHMARK, "--config", CONFIG,
             "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--work-dir", work,
             "--trace-out", trace_out],
            max(30, int(budget)), stdout=subprocess.PIPE, env=env,
            text=True, cwd=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal = steal_share(ticks, cpu_ticks())
    if code != 0:
        die("%s exited with code %d" % (BINARY, code))

    result = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH-RESULT "):
            result = json.loads(line[len("PERFBENCH-RESULT "):])
        else:
            print(line)
    if result is None:
        die("%s printed no result" % BINARY)

    src_hash = source_hash()
    stamp = run_stamp(result, src_hash, steal)
    print("  run stamp: " + json.dumps(stamp, sort_keys=True))
    if result["invalid"]:
        die("run invalid: " + result["invalid"], code=3)
    counters = {name: entry["value"]
                for name, entry in result["counters"].items()}
    drift = check_counters(out_dir, src_hash, args.workload, args.seed,
                           counters)
    if drift:
        print("  DRIFT: deterministic counters changed for this seed: " +
              ", ".join(drift))
    correct = (result["mismatches"] == 0 and result["failed"] == 0 and
               not drift)

    report_dir = os.path.join(out_dir, "perfbench-results")
    os.makedirs(report_dir, exist_ok=True)
    with open(os.path.join(report_dir, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)),
              "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "stamp": stamp, "correct": correct, "drift": drift,
                   "result": result}, handle, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
