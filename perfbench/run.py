"""lieprop benchmark: every run of a workload in a fresh interpreter.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports lieprop from `src/` and
builds nothing.  Workloads are defined in `workloads.py`.

--trace 0 spawns a fresh interpreter per job, one after the other, while
the next job still fits in S seconds (at least one), plus SETUP_PROBES
interpreters that only set up, half before the jobs and half after.  It reports the medians of

    wall_s       seconds from the call into the workload to its return
    setup_s      seconds from spawning the interpreter until it is ready
    peak_rss_mb  ru_maxrss of the workload process, in MiB
    ops_total    operations one job attempts

Both times are scaled to a fixed machine speed inside the timed process
(`speed.py`), because the speed of a shared machine drifts; the unscaled
medians are printed as raw_wall_s and raw_setup_s.

--trace 1 runs one untraced and one traced job and reports the
per-layer metrics of `layers.py` from the traced job's spans.

Every job's output is checked against `reference.json`; failed
operations are counted in `failed` (printed as ops_failed).  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A run that cannot produce its
numbers (lieprop missing, a child crashing or overrunning the time
limit) exits with status 1 or 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Spans  # noqa: E402

SETUP_PROBES = 8     # set-up-only interpreters per untraced run, besides the jobs
TIME_LIMIT_S = 170   # the whole run, every child included


class HarnessError(Exception):
    """The benchmark could not measure: no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("LIEPROP_WORKERS", None)   # serial: no worker processes
    env["PYTHONHASHSEED"] = "0"        # same set and dict order in every child
    return env


def spawn(workload, seed, mode, deadline, spans=None):
    """Run child.py to completion; its JSON record plus elapsed_s."""
    start = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned", repr(start)]
    if spans:
        cmd += ["--spans", spans]
    if deadline - start <= 0:
        raise HarnessError("time limit reached before the %s child of %s" % (mode, workload))
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=deadline - start)
    except subprocess.TimeoutExpired:
        raise HarnessError("%s child of %s overran the time limit" % (mode, workload))
    if proc.returncode != 0:
        raise HarnessError("%s child of %s exited with %d:\n%s"
                           % (mode, workload, proc.returncode, proc.stderr[-2000:]))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - start
    return record


def measure(workload, seed, seconds, deadline):
    """Untraced run: end-to-end metrics and the job records.

    Half the set-up probes run before the jobs and half after, so that
    their median spans the run rather than one moment of it.
    """
    def probes(count):
        return [spawn(workload, seed, "setup", deadline) for _ in range(count)]

    setups = probes(SETUP_PROBES // 2)
    jobs = []
    start = time.monotonic()
    while True:
        jobs.append(spawn(workload, seed, "job", deadline))
        if time.monotonic() - start + jobs[-1]["elapsed_s"] > seconds:
            break
    setups += probes(SETUP_PROBES - SETUP_PROBES // 2) + jobs
    samples = {key: [r[key] for r in records] for records, keys in
               ((jobs, ("wall_s", "raw_wall_s", "peak_rss_mb")),
                (setups, ("setup_s", "raw_setup_s"))) for key in keys}
    metrics = {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MiB"),
        "ops_total": (workloads.WORKLOADS[workload].ops, "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, jobs, samples, True


def measure_traced(workload, seed, deadline):
    """Traced run: per-layer metrics from one traced job, against one untraced job."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s.bin" % workload)
    plain = spawn(workload, seed, "job", deadline)
    traced = spawn(workload, seed, "traced", deadline, spans=path)
    metrics = layers.compute(Spans.read(path), plain["wall_s"])
    same = plain["output"] == traced["output"]
    if not same:
        print("traced and untraced outputs differ", file=sys.stderr)
    samples = {"untraced_wall_s": [plain["wall_s"]], "traced_wall_s": [traced["wall_s"]],
               "untraced_raw_wall_s": [plain["raw_wall_s"]],
               "traced_raw_wall_s": [traced["raw_wall_s"]]}
    return metrics, [plain, traced], samples, same


def context(workload, seed, seconds, trace):
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "params": workloads.WORKLOADS[workload].params, "commit": git_commit(),
            "src_sha256": src_digest(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def src_digest():
    """sha256 over the lieprop sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "lieprop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_one(workload, seed, seconds, trace, deadline):
    if trace:
        metrics, jobs, samples, same = measure_traced(workload, seed, deadline)
    else:
        metrics, jobs, samples, same = measure(workload, seed, seconds, deadline)
    attempted = sum(j["attempted"] for j in jobs)
    failures = [f for j in jobs for f in j["failures"]]
    for line in failures[:20]:
        print("FAIL %s: %s" % (workload, line))
    ctx = context(workload, seed, seconds, trace)
    print("context %s" % json.dumps(ctx, sort_keys=True))
    print("%s  seed=%d  trace=%d  jobs=%d" % (workload, seed, trace, len(jobs)))
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print("  %-*s  %.6g %s" % (width, name, m["value"], m["unit"]))
    for key in ("raw_wall_s", "raw_setup_s"):
        if key in samples:
            print("  %-*s  %.6g s (unscaled)" % (width, key, statistics.median(samples[key])))
    print("  %-*s  %d count" % (width, "ops_failed", len(failures)))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump({"context": ctx, "metrics": metrics,
                   "samples": samples, "attempted": attempted, "failures": failures},
                  fh, indent=1)
    return {"correct": same and not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lieprop", "__init__.py")):
        print("no lieprop sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace, deadline)
    except HarnessError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
