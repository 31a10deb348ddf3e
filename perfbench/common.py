"""Shared helpers: statistics, release digests, FNR, host records.

Everything here is plain standard library plus numpy so that the
orchestrator (``run.py``), the workload worker (``worker.py``) and the
service launcher (``launcher.py``) agree on one definition of each
number they print.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Repository root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test lives; the benchmark never installs it.
SRC = ROOT / "src"
#: Scratch space for service state directories; removed after a run.
TMP = ROOT / ".perfbench_tmp"


def use_program_sources() -> None:
    """Put ``src/`` first on ``sys.path`` (no install step exists)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics --------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def percentile(values: Sequence[float], q: int) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than ten samples
    lie beyond it (the rule for reporting a tail percentile)."""
    if len(values) * (100 - q) / 100.0 < 10:
        return None
    return float(
        statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    )


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def histogram_p50(snapshot_before: dict, snapshot_after: dict) -> float:
    """Median of a cumulative ``le_ms`` histogram's growth between two
    ``/metrics`` snapshots, interpolated linearly inside the bucket."""

    def counts(snapshot: dict) -> List[Tuple[Optional[float], int]]:
        return [
            (bucket["le_ms"], int(bucket["count"]))
            for bucket in (snapshot or {}).get("buckets", [])
        ]

    after = counts(snapshot_after)
    before = dict(counts(snapshot_before))
    grown = [(bound, count - before.get(bound, 0)) for bound, count in after]
    if not grown or grown[-1][1] <= 0:
        return 0.0
    half = grown[-1][1] / 2.0
    lower_bound, lower_count = 0.0, 0
    for bound, count in grown:
        if count >= half:
            if bound is None:
                return float(lower_bound)
            share = (half - lower_count) / max(count - lower_count, 1)
            return float(lower_bound + share * (bound - lower_bound))
        lower_bound, lower_count = bound, count
    return float(lower_bound)


# -- outputs -----------------------------------------------------------
def release_digest(entries: Iterable[Tuple[Sequence[int], float]]) -> str:
    """sha256 over released (itemset, noisy frequency) pairs, order-free
    and exact to the last bit of every frequency."""
    lines = sorted(
        ",".join(str(int(item)) for item in itemset)
        + ":"
        + float(frequency).hex()
        for itemset, frequency in entries
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def combine_digests(digests: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def false_negative_rate(
    exact_top: Sequence[Sequence[int]], released: Iterable[Sequence[int]],
    k: int,
) -> float:
    """``|top-k \\ released| / k`` (the paper's FNR)."""
    truth = {tuple(itemset) for itemset in exact_top[:k]}
    found = {tuple(itemset) for itemset in released}
    return len(truth - found) / float(k)


def release_problems(
    entries: Sequence[Tuple[Sequence[int], float]], k: int, num_items: int
) -> List[str]:
    """Structural checks every published top-k release must pass."""
    problems = []
    if len(entries) != k:
        problems.append(f"released {len(entries)} itemsets, wanted {k}")
    seen = set()
    for itemset, frequency in entries:
        key = tuple(int(item) for item in itemset)
        if not key or list(key) != sorted(set(key)):
            problems.append(f"itemset {key} is not a sorted item set")
        elif key[0] < 0 or key[-1] >= num_items:
            problems.append(f"itemset {key} leaves the vocabulary")
        if key in seen:
            problems.append(f"itemset {key} released twice")
        seen.add(key)
        if not math.isfinite(float(frequency)):
            problems.append(f"itemset {key} has frequency {frequency}")
    return problems[:5]


# -- host records ------------------------------------------------------
def environment() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def calibration_ms() -> float:
    """Time a fixed pure-Python loop: a host-speed diagnostic only —
    never a gate and never a divisor of any metric."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1000.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory (VmHWM) of ``pid`` or this process."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is not None:
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
