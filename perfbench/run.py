#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload link-grid --seed 1 --seconds 20 \
        --trace 0

The library is imported from ``src/`` of the checkout this file sits in
(nothing needs building). Set-up runs ``SETUP_REPS`` times; then rounds
of the workload's fixed work repeat until ``--seconds`` have passed;
every time is converted to reference-host seconds
(``common.HostClock``). With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` rounds alternate between
untraced and traced, and the last line carries the per-layer metrics
plus ``obs.trace_overhead``.
Before it, an ``info`` line records the host and the workload's named
figures and a ``digest`` line the simulated statistics, which depend on
the seed only. The exit code is 0 when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import sys

# One client thread: pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "link-grid": ("link_grid", "LinkGrid"),
    "campaign-sweep": ("campaign_sweep", "CampaignSweep"),
    "city-surrogate": ("city_surrogate", "CitySurrogate"),
}
SETUP_REPS = 3
HELD_OUT_SEED = 20051


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; 'tiny' is for the smoke test")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def run(args, workdir):
    from common import median, perf

    t0 = perf()
    import numpy
    import repro

    module_name, class_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    import_s = perf() - t0
    if not os.path.realpath(repro.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from layers import layer_metrics
    from tracer import Tracer

    workload = getattr(module, class_name)(args.seed, args.scale, workdir)
    clock = workload.clock
    import_s = clock.convert(import_s)
    setup_tracer = Tracer() if args.trace else None
    setup_times = []
    for _ in range(SETUP_REPS):
        if setup_tracer:
            setup_tracer.install()
        try:
            t = perf()
            workload.setup()
            setup_times.append(clock.convert(perf() - t))
        finally:
            if setup_tracer:
                setup_tracer.uninstall()

    # Peak RSS is read after set-up: a round's own peak depends on the
    # seed (up to a quarter of the median on link-grid), set-up's does not.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    deadline = perf() + args.seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        try:
            n_probed = len(clock.slowdowns)
            t = perf()
            workload.run_round(tracer if traced else None)
            # Every workload converts its own pieces, so the round's
            # probes give its slowdown.
            walls[traced].append((perf() - t)
                                 / median(clock.slowdowns[n_probed:]))
        finally:
            if traced:
                tracer.uninstall()
        i += 1
        if perf() >= deadline and i >= (2 if tracer else 1):
            break

    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "import_s": import_s, "setup_reps_s": setup_times,
        "rounds": len(walls[False]) + len(walls[True]),
        "peak_rss_end_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_fraction": workload.failed / max(workload.attempted, 1),
        "held_out_seed": HELD_OUT_SEED,
        "host_slowdown": median(clock.slowdowns),
    }
    if args.trace:
        extras = dict(workload.layer_extras())
        extras["trace_overhead"] = (median(walls[True])
                                    / median(walls[False]) - 1.0)
        metrics = layer_metrics(tracer, setup_tracer, len(walls[True]),
                                SETUP_REPS, extras)
    else:
        e2e, details = workload.end_to_end()
        info.update(details)
        metrics = {
            "setup_s": {"value": import_s + median(setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "throughput_per_s": {"value": e2e["throughput_per_s"],
                                 "unit": "1/s"},
            "primary_ms": {"value": e2e["primary_ms"], "unit": "ms"},
            "secondary_ms": {"value": e2e["secondary_ms"], "unit": "ms"},
        }
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not workload.problems and workload.failed == 0
    print("info " + json.dumps(info))
    print("digest " + json.dumps(workload.digest()))
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
