#!/usr/bin/env python3
"""Repository benchmark: builds the pfbench program from source and runs one
workload of it.

    python3 perfbench/run.py --workload cold-small --seed 1 --seconds 12 --trace 0

Run it from the repository root. The first run configures and builds
`.bench_build/perfbench` (CMake, Release); later runs only re-check the
build. pfbench's last stdout line is one JSON object with `correct`,
`attempted`, `failed` and the `metrics` the workload measured. This
script reprints it with the metrics BENCHMARK.json lists for the mode
(end-to-end with `--trace 0`, per-layer with `--trace 1`), in that order,
a metric the workload does not measure as 0, and passes pfbench's exit
code through (1 = a wrong answer). See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cold-small", "cold-large", "serve-read")
# A run must end within 180 s; the pfbench process gets this much of it.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_logged(cmd, log, timeout):
    """Runs a build step, appending its output to `log`; True on success.

    The step runs in its own process group, so a timeout also stops the
    compilers it started.
    """
    with open(log, "a") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return "library sources (src/) not found next to perfbench/"
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    open(log, "w").close()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], log, 300):
            return f"cmake configure failed, see {log}"
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log, 840):
        return f"build failed, see {log}"
    return None


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def listed_metrics(trace):
    """The metrics BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def canonical(measured, listed):
    """Orders `measured` as `listed`, filling unmeasured metrics with 0.

    Only the heaviest operator kinds (`engine.op.*`) are listed; pfbench
    reports every kind and the rest are dropped. Any other metric outside
    the list, or one with another unit, raises ValueError.
    """
    out = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None:
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif got.get("unit") != m["unit"]:
            raise ValueError(f"metric {m['name']} has unit {got.get('unit')}, "
                             f"BENCHMARK.json says {m['unit']}")
        else:
            out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = [k for k in measured
             if k not in out and not k.startswith("engine.op.")]
    if extra:
        raise ValueError(f"metrics {extra} are not in BENCHMARK.json")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in 1..60")

    listed = listed_metrics(args.trace)
    if listed is None:
        return fail("BENCHMARK.json not found at the repository root")
    err = build()
    if err:
        return fail(err)

    env = dict(os.environ)
    # Pinned to the serial kernels unless the caller chooses otherwise: on
    # a shared 4-core host the default 4-thread pool made cold-large ~1.8x
    # slower and its per-query p90 1.5-2x its median (see README.md).
    env.setdefault("PF_THREADS", "1")
    env["PFBENCH_GIT_SHA"] = git_sha()
    cmd = [os.path.join(BUILD_DIR, "pfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"no result within {RUN_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        return proc.returncode or fail("pfbench printed no result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result["metrics"] = canonical(result.get("metrics", {}), listed)
    except ValueError as e:
        return fail(str(e))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
