"""Benchmark of the kippenhahn package, driven through its public API and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload eq3-census-charpoly --seed 1 --seconds 60 --trace 0

One process, one thread, one client in a closed loop: the workload's fixed
job list (a "pass") runs again and again until the next pass would end after
``--seconds``; at least one pass always runs.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics:

    wall_s        median wall time of one pass (set-up and checks excluded)
    setup_s       median set-up time: importing kippenhahn, generating the
                  seeded inputs, writing and parsing pencil files and building
                  bodies, each sample in a fresh interpreter that has already
                  imported numpy; samples are taken between jobs through the
                  whole run
    peak_rss_mib  peak resident memory of this process

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the metrics are the per-layer figures of ``layers.py``
(medians over the traced passes) plus ``trace.overhead_frac``, the traced
median pass time over the untraced one, minus one.  Spans are written to
``perfbench/out/``.  Jobs that raise or fail their output check count in
``failed``; ``attempted`` counts every job run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 12
WORKLOAD_NAMES = ("eq3-census-charpoly", "fermat6")

# One set-up in a fresh interpreter: numpy, the package's one dependency, is
# imported before the clock starts, because its import time follows the host's
# disk and memory load rather than the code under test.
_SETUP_PROBE = """
import sys, time
from pathlib import Path
import numpy
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t = time.perf_counter()
import kippenhahn
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5]))
d = time.perf_counter() - t
print(kippenhahn.__file__)
print(d)
"""


def _setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Time to import kippenhahn and build the workload's jobs in a fresh
    interpreter that has already imported numpy."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload, str(seed), str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    where, seconds = proc.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported kippenhahn from {where}, not from {SRC}")
    return float(seconds)


def _run_passes(jobs, budget: float, tracer=None, between=None):
    """Closed loop over the job list.  Returns the pass wall times (the sum
    of the pass's job times), per pass the (job, output, error) triples, and
    with a tracer its per-pass summaries.  ``between`` is called before each
    job, outside the timed calls."""
    walls, passes, summaries = [], [], []
    start = time.perf_counter()
    while True:
        since = tracer.start_pass() if tracer is not None else 0
        results = []
        wall = 0.0
        for job in jobs:
            if between is not None:
                between()
            t0 = time.perf_counter()
            try:
                results.append((job, job.run(), None))
            except Exception:
                results.append((job, None, traceback.format_exc()))
            wall += time.perf_counter() - t0
        walls.append(wall)
        passes.append(results)
        if tracer is not None:
            summaries.append(tracer.summary(since))
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls, passes, summaries


def _check(passes) -> tuple[int, int, list]:
    attempted, failed, problems = 0, 0, []
    for results in passes:
        for job, output, error in results:
            attempted += 1
            if error is None:
                try:
                    found = job.check(output)
                except Exception:
                    found = [traceback.format_exc()]
            else:
                found = [error]
            if found:
                failed += 1
                problems.append({"job": job.name, "problems": found[:10]})
    return attempted, failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import kippenhahn
    import numpy

    if not Path(kippenhahn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported kippenhahn from {kippenhahn.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workdir = OUT / f"work-{workload}-{seed}"
    jobs = WORKLOADS[workload](seed, workdir)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "jobs": [job.name for job in jobs],
    }
    if not trace:
        # Set-up is sampled before the first job and then about every
        # seconds / SETUP_SAMPLES between jobs, so that its samples see the
        # same drift of the host's speed through the run as the passes do.
        setup_times = []
        last_setup = 0.0

        def sample_setup():
            nonlocal last_setup
            if not setup_times or time.perf_counter() - last_setup >= seconds / SETUP_SAMPLES:
                setup_times.append(_setup_seconds(workload, seed, workdir))
                last_setup = time.perf_counter()

        walls, passes, _ = _run_passes(jobs, seconds, between=sample_setup)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        record["pass_s"] = walls
        record["setup_s"] = setup_times
    else:
        from tracer import Tracer

        base_walls, passes, _ = _run_passes(jobs, seconds / 2)
        with Tracer() as tracer:
            walls, traced_passes, summaries = _run_passes(jobs, seconds / 2, tracer)
        passes += traced_passes
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{workload}-{seed}.json")
        from layers import PER_LAYER_METRICS

        metrics = {}
        for name, unit in PER_LAYER_METRICS:
            if name == "trace.overhead_frac":
                value = statistics.median(walls) / statistics.median(base_walls) - 1
            else:
                value = statistics.median(s[name] for s in summaries)
            metrics[name] = (value, unit)
        record["untraced_pass_s"] = base_walls
        record["traced_pass_s"] = walls
        record["spans"] = len(tracer.spans)

    attempted, failed, problems = _check(passes)
    record["problems"] = problems
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kippenhahn" / "__init__.py").is_file():
        print(f"kippenhahn sources not found under {SRC}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"result": result, "run": record}, indent=1) + "\n")
    for item in record["problems"]:
        print(f"FAILED {item['job']}: {item['problems'][0]}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "python", "numpy", "nproc")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
