"""The benchmark's workloads (``perfbench/workloads.py``) against the package.

Each workload sets up at one seed, runs two rounds and passes every output
check, with equal digests, as the benchmark's worker does.  A change that
drops or renames a name the benchmark calls fails here, not in a benchmark
run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    st = workload.setup(22, tmp_path / "data")
    first, second = workload.run(st), workload.run(st)
    assert workload.digest(first) == workload.digest(second)
    assert workload.passes(st) > 0 and workload.inputs(st)["utterances"] > 0
    workload.record(st, first)
    failed = [check for check, ok in workload.check(st, first) if not ok]
    assert not failed
