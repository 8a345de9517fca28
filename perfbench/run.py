#!/usr/bin/env python3
"""msalib benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  The script builds perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR (default
.bench_build), runs the msabench binary with the workload's MSA_THREADS and
MSA_TRACE, and prints every metric by name with its unit and clock.  The last
line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an untraced
run; --trace 1 reports the per-layer metrics from a traced run.  The set-up
figures (setup_s, data.gen_s, comm.spawn_s) are medians over SETUP_PROBES
fresh msabench processes, each timed from process start to its first timed
step, so one-time initialisation stays in them.  Each result
is also appended, with its provenance, to .bench_results/records.jsonl so
that two runs can be diffed.  The exit code is 0 only when every correctness
check passed.
"""

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_results", "records.jsonl")
BUILD_TYPE = "Release"
SETUP_PROBES = 5
SETUP_METRICS = ("setup_s", "data.gen_s", "comm.spawn_s")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then let the build tool bring msabench up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no msalib sources at src/ -- run from the root of a source tree")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "msabench")


def source_digest():
    """sha256 over src/ and perfbench/ sources (the checkout may not be a git
    repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def applies(spec, workload):
    return spec["workloads"] == "all" or workload in spec["workloads"]


def run_msabench(cmd, env, seconds):
    """Run msabench; return (exit code, its last stdout line as JSON or None).
    A run that outlives three measurement windows plus a minute is killed."""
    timeout = 3 * seconds + 60
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: msabench killed after %.0f s" % timeout,
              file=sys.stderr)
        return -1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def setup_probes(binary, workload, seed, env):
    """Median set-up figures over fresh processes, their samples, and whether
    every probe ran cleanly."""
    samples = {name: [] for name in SETUP_METRICS}
    ok = True
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    for _ in range(SETUP_PROBES):
        code, out = run_msabench(cmd, dict(env, MSA_TRACE="0"), 1)
        if code != 0 or out is None:
            ok = False
            continue
        for name in SETUP_METRICS:
            samples[name].append(out["metrics"][name])
    medians = {name: statistics.median(v) for name, v in samples.items() if v}
    return medians, samples, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load_json(os.path.join(HERE, "metrics.json"))
    if args.workload not in meta["workloads"]:
        fail("unknown workload " + args.workload)
    binary = build()

    threads = meta["workloads"][args.workload]["msa_threads"]
    threads = str(nproc()) if threads == "nproc" else threads
    env = dict(os.environ, MSA_THREADS=threads, MSA_TRACE=str(args.trace))

    # The probes share the measurement window with the episode loop.
    t0 = time.monotonic()
    setup, setup_samples, probes_ok = setup_probes(
        binary, args.workload, args.seed, env)
    seconds = max(1.0, args.seconds - (time.monotonic() - t0))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    code, raw = run_msabench(cmd, env, seconds)
    wall_s = time.monotonic() - t0
    if raw is None:
        fail("msabench printed no result (exit %d)" % code)
    raw["metrics"].update(setup)

    # The reported set: every end-to-end metric untraced, every per-layer
    # metric traced.  A metric whose layer is not on this workload's path is
    # reported as 0; a missing applicable one fails the run.
    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    metrics, missing = {}, []
    for m in declared:
        name = m["name"]
        spec = meta["metrics"][name]
        value = raw["metrics"].get(name)
        if value is None:
            if applies(spec, args.workload):
                missing.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": m["unit"],
                         "clock": spec["clock"]}
    checks = dict(raw["checks"])
    checks["setup_probes_ok"] = probes_ok
    checks["all_metrics_present"] = not missing
    correct = code == 0 and all(checks.values()) and raw["failed"] == 0

    for name, m in metrics.items():
        print("%-12s %-28s %.6g %s [%s]" % (args.workload, name, m["value"],
                                           m["unit"], m["clock"]))
    for name, ok in checks.items():
        print("%-12s check %-40s %s" % (args.workload, name,
                                          "ok" if ok else "FAILED"))

    record = {
        "time_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": meta["held_out_seed"],
        "trace": args.trace,
        "run_seconds": args.seconds,
        "wall_s": wall_s,
        "provenance": {
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "build_type": BUILD_TYPE,
            "native_arch": True,
            "msa_threads": raw["msa_threads"],
            "nproc": nproc(),
        },
        "metrics": metrics,
        "all_metrics": raw["metrics"],
        "bases": raw["bases"],
        "setup_samples": setup_samples,
        "checks": checks,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "correct": correct,
    }
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
