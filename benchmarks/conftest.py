"""Shared fixtures for the benchmark harness.

Every benchmark writes its paper-style table/series into
``benchmarks/results/<name>.txt`` (and prints it, visible with ``-s``),
so the regenerated rows survive the pytest run.  Under ``BENCH_SMOKE``
the reduced-configuration tables go to a temporary directory instead,
leaving the committed full-run tables untouched.
"""

import os

import pytest

from bench_harness import results_dir

SMOKE = bool(os.environ.get("BENCH_SMOKE"))


@pytest.fixture
def record():
    """Persist (and print) one benchmark's output table."""

    def _record(name: str, text: str) -> None:
        (results_dir(SMOKE) / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _record
