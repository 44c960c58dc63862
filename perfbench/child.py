"""One workload run in a fresh interpreter; `run.py` starts it.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|job|traced
                               --spawned T [--spans FILE]

T is the moment the parent spawned this process on the system-wide
monotonic clock.  The child starts a `speed.Sampler` first, imports
lieprop from the checkout's `src/`, does the workload's set-up, and
notes the moment it is ready: `setup_s` is the time from T until then,
scaled to the reference speed, and `raw_setup_s` the same time unscaled.
In `setup` mode it stops there.  Otherwise it times one job, with every
public lieprop function wrapped in `traced` mode (the spans go to FILE):
`wall_s` scaled and `raw_wall_s` unscaled, both without the sampler's
kernel runs.  Then it checks the output and prints one JSON line.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
import workloads  # noqa: E402  (after the path to lieprop is set)


def main():
    sampler = speed.Sampler()
    sampler.start(speed.SETUP_INTERVAL_S)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "job", "traced"))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    workload.setup()
    ready = time.monotonic()
    record = {"setup_s": sampler.scaled(args.spawned, ready),
              "raw_setup_s": ready - args.spawned - sampler.kernel_s(args.spawned, ready)}
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(record))
        return 0

    tracer = None
    if args.mode == "traced":
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    sampler.start(speed.JOB_INTERVAL_S)
    t0 = time.monotonic()
    try:
        output = workload.run(args.seed)
    except Exception:
        output = {"error": traceback.format_exc()}
    t1 = time.monotonic()
    sampler.stop()
    wall_s = sampler.scaled(t0, t1)
    raw_wall_s = t1 - t0 - sampler.kernel_s(t0, t1)
    if tracer is not None:
        tracer.uninstall()
        tracer.spans(wall_s).write(args.spans)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    failures = workload.check(output, reference)
    record.update(wall_s=wall_s, raw_wall_s=raw_wall_s, peak_rss_mb=peak_rss_mb,
                  attempted=workload.ops, failures=failures, output=output)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
