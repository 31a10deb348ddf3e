r"""Shared benchmark helpers.

Every benchmark regenerates one paper artefact (table, figure, or
ablation).  The experiment itself runs exactly once per session —
``benchmark.pedantic(rounds=1, iterations=1)`` reports wall time
without re-running multi-minute sweeps — and the regenerated artefact
is printed, so a ``-s`` run doubles as the reproduction report.  The
scripts and functions are named ``bench_*``, so pytest needs
``-o python_files='bench_*.py' -o python_functions='bench_*'`` to
collect them (see the command below).

Profiles (set ``REPRO_BENCH_PROFILE``):

* ``quick`` (default) — coarse ε grids, registry-scale datasets.
* ``paper`` — the paper's full ε grids; combine with
  ``REPRO_FULL_SCALE=1`` for paper-exact dataset sizes.

Without pytest-benchmark the ``benchmark`` fixture falls back to a
stand-in that runs the function once, untimed, so the shape gates
still run under plain pytest (add ``-s`` for the report)::

    PYTHONPATH=src python -m pytest -q \
        -o python_files='bench_*.py' -o python_functions='bench_*' \
        benchmarks/bench_fig1_mushroom.py benchmarks/bench_fig3_retail.py
"""

from __future__ import annotations

import pytest


class _RunOnceBenchmark:
    """The slice of pytest-benchmark's fixture the benchmarks use."""

    def __call__(self, func, *args, **kwargs):
        return func(*args, **kwargs)

    def pedantic(self, func, args=(), kwargs=None, **_timing_options):
        return func(*args, **(kwargs or {}))


class _FallbackBenchmarkPlugin:
    @pytest.fixture
    def benchmark(self):
        return _RunOnceBenchmark()


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.addinivalue_line(
            "markers", "benchmark: pytest-benchmark options (ignored)"
        )
        config.pluginmanager.register(_FallbackBenchmarkPlugin())


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture(scope="session")
def root_seed() -> int:
    """Root seed for all benchmark randomness (the paper's VLDB date)."""
    return 20120827


def series_by_label(figure_result, prefix: str):
    """The figure's series whose labels start with ``prefix``."""
    return [
        series
        for series in figure_result.series
        if series.label.startswith(prefix)
    ]


def final_point(series, metric: str) -> float:
    """The metric value at the largest ε of a series."""
    values = getattr(series, f"{metric}_mean")
    return values[-1]


def mean_over_grid(series, metric: str) -> float:
    """The metric averaged over the whole ε grid of a series."""
    values = getattr(series, f"{metric}_mean")
    finite = [value for value in values if value == value]
    return sum(finite) / len(finite) if finite else float("nan")
