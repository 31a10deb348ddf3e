"""Seeded schedules: what each workload sends, as a pure function of
``(seed, size)``.

The program never sees the seed, only what these functions generate:
per-release rng seeds (the in-process workloads pass them as ``rng``;
the service draws its own OS-seeded noise, which the benchmark leaves
alone), ingest batches as row indices into the base dataset, and the
service request mix.  A schedule's length depends on ``--seconds``
through the fixed nominal costs in ``worker.py``, never on measured
speed, so two runs with the same arguments do identical work.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: Workload ids mixed into every seed so workloads never share streams.
_STREAM = {"warm_release": 1, "ingest_release": 2, "service_mixed": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM[workload]])


def _seeds(rng: np.random.Generator, count: int) -> List[int]:
    return [int(value) for value in rng.integers(0, 2**62, size=count)]


def warm_schedule(seed: int, releases: int) -> Dict[str, object]:
    """One priming seed, then one rng seed per timed release."""
    rng = _rng("warm_release", seed)
    return {"prime": _seeds(rng, 1)[0], "releases": _seeds(rng, releases)}


def ingest_schedule(
    seed: int, cycles: int, num_rows: int, batch_rows: int, ks: Tuple[int, ...]
) -> Dict[str, object]:
    """Per cycle: the base rows to re-ingest, then one rng seed per
    release (one release per entry of ``ks``)."""
    rng = _rng("ingest_release", seed)
    prime = _seeds(rng, 1)[0]
    plan = []
    for _ in range(cycles):
        rows = rng.choice(num_rows, size=batch_rows, replace=False)
        plan.append(
            {
                "rows": [int(row) for row in rows],
                "releases": list(zip(ks, _seeds(rng, len(ks)))),
            }
        )
    return {"prime": prime, "cycles": plan}


#: service_mixed analysts: each re-sends its own fresh ``(k, ε)`` — a
#: byte-identical repeat, which the reuse plane always runs fresh —
#: and dominated ``(k', ε')`` requests the reuse plane may answer.
#: Their k and ε are the paper's mushroom settings (Figure 1 runs
#: k = 50 and k = 100 over ε in 0.1..1.0; Table 2 uses k = 100), as
#: ``repro.experiments.config.FIGURES["fig1"]`` records them.
ANALYSTS = {
    "a0": (50, 0.5),
    "a1": (100, 0.5),
    "a2": (100, 1.0),
}
#: The tenant that appends ingest batches (analysts may not ingest).
FEEDER = "feed"
#: The tenant whose release primes the dataset's session in set-up.
PRIMER = "probe"
#: Requests per block of 100, in schedule order before the shuffle.
#: The analyst-fleet mix of ``benchmarks/bench_soak.py``: 10% releases
#: (split evenly into fresh and dominated), 2% ingests, 5% budget
#: reads and the rest snapshot reads, of which plan reads take the
#: same 5% as budget reads.
SERVICE_MIX = (
    ("fresh", 5),
    ("dominated", 5),
    ("ingest", 2),
    ("budget", 5),
    ("plan", 5),
    ("snapshot", 78),
)
#: Dominated variants of an analyst's ``(k, ε)``: ``(k - a, ε / b)``.
DOMINATED = ((0, 2), (10, 1), (10, 2))
#: Rows per ingest batch (0.25% of mushroom's 8124 transactions).
SERVICE_BATCH_ROWS = 20


def service_schedule(
    seed: int, requests: int, num_rows: int
) -> List[Dict[str, object]]:
    """``requests`` service requests: whole blocks of :data:`SERVICE_MIX`
    shuffled within each block, so every run's mix is exact."""
    rng = _rng("service_mixed", seed)
    names = sorted(ANALYSTS)
    schedule: List[Dict[str, object]] = []
    while len(schedule) < requests:
        # Tenants and dominated variants rotate per operation, so every
        # analyst's mix of requests is fixed too; the shuffle sets the
        # order.
        offset = len(schedule)
        slots = [(op, names[(offset + i) % len(names)], i // len(names))
                 for op, count in SERVICE_MIX for i in range(count)]
        for index in rng.permutation(len(slots)):
            op, tenant, turn = slots[index]
            k, epsilon = ANALYSTS[tenant]
            request: Dict[str, object] = {"op": op, "tenant": tenant}
            if op == "fresh":
                request.update(op="release", k=k, epsilon=epsilon)
            elif op == "dominated":
                fewer, cheaper = DOMINATED[turn % len(DOMINATED)]
                request.update(
                    op="release", k=k - fewer, epsilon=epsilon / cheaper
                )
            elif op == "ingest":
                request["tenant"] = FEEDER
                request["rows"] = [
                    int(row)
                    for row in rng.choice(
                        num_rows, size=SERVICE_BATCH_ROWS, replace=False
                    )
                ]
            elif op == "plan":
                request["k"], request["epsilon"] = k, epsilon
            schedule.append(request)
    return schedule[:requests]


def analyst_spend_bound(schedule: List[Dict[str, object]]) -> Dict[str, float]:
    """ε each analyst would spend if no release were a reuse hit: the
    tenant limits are sized above it so no request is refused."""
    bound = {tenant: 0.0 for tenant in ANALYSTS}
    for request in schedule:
        if request["op"] == "release":
            bound[request["tenant"]] += float(request["epsilon"])
    return bound
