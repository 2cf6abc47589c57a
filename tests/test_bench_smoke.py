"""One pass of every benchmark job, judged by the benchmark's own checks.

``perfbench/workloads.py`` builds each workload's jobs and checks their
outputs against facts known independently of the package (closed forms from
the paper, numpy float arithmetic, invariants of the geometry).  Running
every job once, at two seeds, shows an output the benchmark would count as
incorrect in a few seconds, without the timed runs.  Nothing under
``perfbench/`` is changed: its files are only read and imported.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", [1, 2])
def test_every_job_passes_its_check(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    problems = {}
    for name, setup in workloads.WORKLOADS.items():
        for job in setup(seed, tmp_path / name):
            found = job.check(job.run())
            if found:
                problems[job.name] = found
    assert not problems
