"""The kernel and stage harness (``benchmarks/bench_kernels.py``) against
the package.

Each section verifies the product's output against its reference and then
times it once, as ``--repeats 1`` does.  A change that breaks a name the
harness calls, or an output it checks, fails here, not in a harness run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_kernels  # noqa: E402


@pytest.mark.parametrize("section", bench_kernels.SECTIONS, ids=lambda section: section.__name__)
def test_section_verifies_and_times(section):
    title, header, rows = section(bench_kernels.parse_args(["--repeats", "1"]))
    assert title and rows
    for row in rows:
        assert len(row) == len(header)
        assert all(value > 0 for value in row if not isinstance(value, str))
