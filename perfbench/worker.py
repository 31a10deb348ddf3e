"""Run one workload once in this process: set up, send the seeded
schedule through one closed-loop client, check the outputs.

Started by ``run.py``, which times set-up from this process's start
to the ``READY`` line and reads the result from the last line.
``--setup-only`` exits after ``READY`` (the extra set-up samples).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

import common
from common import (
    calibration_ms,
    combine_digests,
    environment,
    false_negative_rate,
    mean,
    peak_rss_mb,
    release_digest,
    release_problems,
)
from metrics import Outcome
from schedule import ingest_schedule, warm_schedule
from spans import SpanRecorder, install

common.use_program_sources()

#: The in-process workloads' fixed settings: ``(dataset, ks, ε,
#: nominal seconds per schedule item)``.  The nominal cost converts
#: ``--seconds`` into a schedule length and is never re-measured, so a
#: run's work depends only on its arguments.  ``--quick`` swaps in the
#: small mushroom dataset for the benchmark's own tests.
SETTINGS = {
    "warm_release": ("kosarak", (200,), 1.0, 0.33),
    "ingest_release": ("pumsb_star", (200, 150, 100), 1.0, 0.75),
}
QUICK = {
    "warm_release": ("mushroom", (50,), 1.0, 0.33),
    "ingest_release": ("mushroom", (50, 40, 30), 1.0, 0.75),
}
#: Ingest batch size as a share of the base dataset's rows.
INGEST_SHARE = 0.002
#: ingest_release computes FNR on every third snapshot: an exact mine
#: of every snapshot would add half the timed phase again to each run.
FNR_EVERY = 3
#: A release whose FNR average exceeds this is reported as wrong: the
#: paper's PrivBasis stays far below it at these (k, ε) settings.
FNR_LIMIT = 0.5


def schedule_length(seconds: float, nominal: float, quick: bool) -> int:
    return 2 if quick else max(3, int(round(seconds / nominal)))


def entries_of(result):
    return [(entry.itemset, entry.noisy_frequency) for entry in result.itemsets]


class InProcess:
    """A ``PrivBasisSession`` driven directly by this process."""

    def __init__(self, args) -> None:
        self.args = args
        self.recorder = None
        if args.trace:
            self.recorder = SpanRecorder()
            install(self.recorder)
        table = QUICK if args.quick else SETTINGS
        self.dataset, self.ks, self.epsilon, nominal = table[args.workload]
        self.length = schedule_length(args.seconds, nominal, args.quick)
        self.problems = []

    def setup(self) -> None:
        from repro import PrivBasisSession, load_dataset

        self.base = load_dataset(self.dataset)
        self.session = PrivBasisSession(self.base)
        self.session.warm_up()
        self.make_schedule()
        self.session.release(
            self.ks[0], self.epsilon,
            rng=np.random.default_rng(self.schedule["prime"]),
        )
        gc.collect()

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()

    def release(self, k, seed):
        started = time.monotonic()
        result = self.session.release(
            k, self.epsilon, rng=np.random.default_rng(seed)
        )
        return started, time.monotonic(), result

    def check_release(self, result, k, version) -> None:
        problems = release_problems(
            entries_of(result), k, self.base.num_items
        )
        if abs(result.trace.epsilon_spent - self.epsilon) > 1e-9:
            problems.append(
                f"charged {result.trace.epsilon_spent}, asked {self.epsilon}"
            )
        if result.snapshot_version != version:
            problems.append(
                f"pinned snapshot {result.snapshot_version}, "
                f"served {version}"
            )
        self.problems.extend(problems)

    def replay(self, k, seed, expected: str) -> None:
        """Re-run one release with its seed: the digest must repeat."""
        _, _, again = self.release(k, seed)
        if release_digest(entries_of(again)) != expected:
            self.problems.append(
                f"release k={k} seed={seed} did not repeat its digest"
            )


class WarmRelease(InProcess):
    """Seeded releases at one fixed (k, ε) on a primed session."""

    def make_schedule(self) -> None:
        self.schedule = warm_schedule(self.args.seed, self.length)

    def run(self):
        from repro.fim.topk import top_k_itemsets

        k = self.ks[0]
        cache_before = self.session.cache_info()
        if self.recorder is not None:
            self.recorder.clear()
        windows, results = [], []
        for seed in self.schedule["releases"]:
            started, ended, result = self.release(k, seed)
            windows.append((started, ended))
            results.append(result)
        rss = peak_rss_mb()
        cache_after = self.session.cache_info()
        digests = [release_digest(entries_of(result)) for result in results]
        for result in results:
            self.check_release(result, k, 0)
        self.replay(k, self.schedule["releases"][0], digests[0])
        exact = [itemset for itemset, _ in top_k_itemsets(self.base, k)]
        fnrs = [
            false_negative_rate(exact, (e for e, _ in entries_of(r)), k)
            for r in results
        ]
        latency = [(end - start) * 1000.0 for start, end in windows]
        return Outcome(
            self.recorder, windows, latency, fresh=list(range(len(results))),
            ingests=[], snapshots=1, fnrs=fnrs, rss=rss,
            digest=combine_digests(digests),
            cache=(cache_before, cache_after),
            epsilons=[r.trace.epsilon_spent for r in results],
        )


class IngestRelease(InProcess):
    """Cycles of: ingest a seeded batch of base rows, then one release
    per k in descending order on the new snapshot."""

    def make_schedule(self) -> None:
        rows = max(1, int(round(self.base.num_transactions * INGEST_SHARE)))
        self.schedule = ingest_schedule(
            self.args.seed, self.length, self.base.num_transactions,
            rows, self.ks,
        )

    def batch(self, rows):
        return [list(self.base.transaction(row)) for row in rows]

    def run(self):
        from repro.datasets.transactions import TransactionDatabase
        from repro.fim.topk import top_k_itemsets

        cache_before = self.session.cache_info()
        batches = [self.batch(cycle["rows"]) for cycle in self.schedule["cycles"]]
        if self.recorder is not None:
            self.recorder.clear()
        windows, fresh, ingests, releases, freshness = [], [], [], [], []
        for number, (cycle, batch) in enumerate(
            zip(self.schedule["cycles"], batches), start=1
        ):
            started = time.monotonic()
            version = self.session.ingest(batch)
            ended = time.monotonic()
            if version != number:
                self.problems.append(f"ingest {number} served version {version}")
            ingests.append(len(windows))
            windows.append((started, ended))
            for position, (k, seed) in enumerate(cycle["releases"]):
                begun, done, result = self.release(k, seed)
                if position == 0:
                    freshness.append((done - started) * 1000.0)
                fresh.append(len(windows))
                windows.append((begun, done))
                releases.append((number, k, seed, result))
        rss = peak_rss_mb()
        cache_after = self.session.cache_info()
        latency = [(end - start) * 1000.0 for start, end in windows]
        digests = [release_digest(entries_of(r)) for _, _, _, r in releases]
        for number, k, _, result in releases:
            self.check_release(result, k, number)
        _, k, seed, _ = releases[-len(self.ks)]
        self.replay(k, seed, digests[-len(self.ks)])

        fnrs, snapshot = [], self.base
        for number, batch in enumerate(batches, start=1):
            snapshot = snapshot.extended(
                TransactionDatabase(batch, num_items=self.base.num_items)
            )
            if (number - 1) % FNR_EVERY:
                continue
            exact = [s for s, _ in top_k_itemsets(snapshot, max(self.ks))]
            fnrs.extend(
                false_negative_rate(exact, (e for e, _ in entries_of(r)), k)
                for v, k, _, r in releases
                if v == number
            )
        served = self.session.database
        if snapshot.num_transactions != served.num_transactions or not (
            snapshot.item_supports() == served.item_supports()
        ).all():
            self.problems.append("served snapshot differs from the replica")
        return Outcome(
            self.recorder, windows, latency, fresh=fresh, ingests=ingests,
            snapshots=len(batches), fnrs=fnrs, rss=rss,
            digest=combine_digests(digests),
            cache=(cache_before, cache_after),
            epsilons=[r.trace.epsilon_spent for *_, r in releases],
            freshness=freshness,
        )


WORKLOADS = {
    "warm_release": WarmRelease,
    "ingest_release": IngestRelease,
}


def build(args):
    if args.workload == "service_mixed":
        from service_mixed import ServiceMixed

        return ServiceMixed(args)
    return WORKLOADS[args.workload](args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = build(args)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        calibration = [calibration_ms()]
        outcome = workload.run()
        calibration.append(calibration_ms())
    finally:
        workload.close()
    problems = workload.problems
    fnr = mean(outcome.fnrs)
    if not fnr <= FNR_LIMIT:
        problems.append(f"mean FNR {fnr} above {FNR_LIMIT}")
    metrics = outcome.per_layer() if args.trace else outcome.end_to_end()
    record = {
        "environment": environment(),
        "calibration_ms": calibration,
        **outcome.report(),
    }
    print(
        json.dumps(
            {
                "metrics": metrics,
                "record": record,
                "problems": problems[:20],
                "attempted": outcome.attempted,
                "failed": outcome.failed,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
