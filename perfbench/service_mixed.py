"""service_mixed: one closed-loop client against ``python -m repro.service``.

The service runs in its own process with a durable state directory
(``--fsync batch``) and the reuse plane on.  One client on one
keep-alive connection sends the seeded schedule from ``schedule.py``:
fresh releases, dominated ``(k', ε')`` repeats, ingests, and budget,
plan and snapshot reads, all on mushroom.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlencode

import common
from common import (
    combine_digests,
    false_negative_rate,
    histogram_p50,
    peak_rss_mb,
    release_problems,
)
from metrics import Outcome
from schedule import (
    ANALYSTS,
    FEEDER,
    PRIMER,
    analyst_spend_bound,
    service_schedule,
)
from spans import SpanRecorder

DATASET = "mushroom"
#: Nominal seconds per request, converting ``--seconds`` into a
#: schedule length (see ``worker.SETTINGS``).
NOMINAL_REQUEST_S = 0.003
#: How long the service may take to start or to stop.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServiceMixed:
    def __init__(self, args) -> None:
        self.args = args
        self.traced = bool(args.trace)
        self.recorder = None
        self.problems = []
        self.length = (
            100 if args.quick
            else max(100, int(round(args.seconds / NOMINAL_REQUEST_S)))
        )
        self.process = None
        self.connection = None
        self.state = common.TMP / f"service-{os.getpid()}-{time.time_ns()}"

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        from repro import load_dataset

        self.base = load_dataset(DATASET)
        self.schedule = service_schedule(
            self.args.seed, self.length, self.base.num_transactions
        )
        self.state.mkdir(parents=True)
        tenants = {
            tenant: {
                "dataset": DATASET,
                "epsilon_limit": 1.25 * spend + 1.0,
                "ingest": False,
            }
            for tenant, spend in analyst_spend_bound(self.schedule).items()
        }
        tenants[FEEDER] = {"dataset": DATASET, "epsilon_limit": 1.0}
        tenants[PRIMER] = {"dataset": DATASET, "epsilon_limit": 10.0}
        (self.state / "tenants.json").write_text(json.dumps(tenants))
        service_args = [
            "--port", "0",
            "--state-dir", str(self.state / "store"),
            "--fsync", "batch",
            "--tenants", str(self.state / "tenants.json"),
        ]
        here = Path(__file__).resolve().parent
        command = (
            [sys.executable, str(here / "launcher.py"),
             "--trace-out", str(self.state / "spans.json"), "--"]
            if self.traced
            else [sys.executable, "-m", "repro.service"]
        ) + service_args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.stderr = open(self.state / "service.err", "wb")
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        port = self._await_port()
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=START_TIMEOUT_S
        )
        k, epsilon = ANALYSTS["a0"]
        self.call("POST", "/v1/release",
                  {"tenant": PRIMER, "k": k, "epsilon": epsilon})

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("privbasis service on http://"):
                return int(line.split()[3].rsplit(":", 1)[1])
        raise RuntimeError(
            "service did not start: "
            + (self.state / "service.err").read_text()[-2000:]
        )

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            self.process.stdout.close()
            self.stderr.close()
            if self.traced:
                self.recorder = SpanRecorder.load(
                    str(self.state / "spans.json")
                )
            self.process = None
        shutil.rmtree(self.state, ignore_errors=True)

    # -- wire ------------------------------------------------------------
    def call(self, method, path, body=None):
        """One request; returns ``(status, payload, start, end)``."""
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        started = time.monotonic()
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        ended = time.monotonic()
        return response.status, json.loads(raw), started, ended

    def send(self, request):
        op, tenant = request["op"], request["tenant"]
        if op == "release":
            return self.call("POST", "/v1/release", {
                "tenant": tenant, "k": request["k"],
                "epsilon": request["epsilon"],
            })
        if op == "ingest":
            return self.call("POST", "/v1/ingest", {
                "tenant": tenant,
                "transactions": [
                    list(self.base.transaction(row))
                    for row in request["rows"]
                ],
            })
        query = {"tenant": tenant}
        if op == "plan":
            query.update(k=request["k"], epsilon=request["epsilon"])
        return self.call("GET", f"/v1/{op}?{urlencode(query)}")

    # -- the timed phase -------------------------------------------------
    def run(self):
        _, metrics_before, _, _ = self.call("GET", "/metrics")
        windows, latency = [], []
        fresh, hits, ingests, answered = [], [], [], []
        charged = {tenant: 0.0 for tenant in ANALYSTS}
        stored = {tenant: set() for tenant in ANALYSTS}
        version, batches, failed = 0, [], 0
        for index, request in enumerate(self.schedule):
            try:
                status, body, started, ended = self.send(request)
            except (OSError, http.client.HTTPException, ValueError) as error:
                failed += 1
                self.problems.append(f"request {index} failed: {error!r}")
                self.connection.close()
                now = time.monotonic()
                windows.append((now, now))
                latency.append(0.0)
                continue
            windows.append((started, ended))
            latency.append((ended - started) * 1000.0)
            if status != 200:
                failed += 1
                self.problems.append(f"request {index}: {status} {body}")
                continue
            if request["op"] == "ingest":
                version += 1
                batches.append(request["rows"])
                for entries in stored.values():
                    entries.clear()
                ingests.append(index)
                expected = self.base.num_transactions + sum(map(len, batches))
                if (body["snapshot_version"], body["num_transactions"]) != (
                    version, expected
                ):
                    self.problems.append(f"ingest {index} answered {body}")
            elif request["op"] == "release":
                self._check_release(
                    index, request, body, version, stored, charged,
                    fresh, hits, answered,
                )
        _, metrics_after, _, _ = self.call("GET", "/metrics")
        rss = peak_rss_mb(self.process.pid)
        for tenant in ANALYSTS:
            _, budget, _, _ = self.call(
                "GET", f"/v1/budget?{urlencode({'tenant': tenant})}"
            )
            ledger = budget["ledger"]
            spent = float(ledger["spent"])
            if not math.isclose(spent, charged[tenant], rel_tol=1e-9,
                                abs_tol=1e-12):
                self.problems.append(
                    f"{tenant}: /v1/budget spent {spent}, "
                    f"responses charged {charged[tenant]}"
                )
            debits = sum(
                self.schedule[index]["tenant"] == tenant for index in fresh
            )
            if len(ledger["entries"]) != debits:
                self.problems.append(
                    f"{tenant}: {len(ledger['entries'])} ledger debits for "
                    f"{debits} fresh releases"
                )
        self.close()
        fnrs = self._fnrs(answered, batches)
        route = "/v1/release"
        cache = tuple(
            snapshot["datasets"][DATASET]["cache"]
            for snapshot in (metrics_before, metrics_after)
        )
        return Outcome(
            self.recorder, windows, latency, fresh=fresh, ingests=ingests,
            snapshots=len(ingests) + 1, fnrs=fnrs, rss=rss,
            digest=combine_digests(
                f"{version}:{k}:{cost}" for version, k, _, cost in answered
            ),
            cache=cache,
            epsilons=[cost for *_, cost in answered],
            reuse_hits=hits, attempted=len(self.schedule), failed=failed,
            freshness=self._freshness(windows, ingests, fresh),
            children=("service.dispatch", "service.write_response"),
            route_p50_ms=histogram_p50(
                metrics_before["http"]["latency_ms"].get(route),
                metrics_after["http"]["latency_ms"].get(route),
            ),
            report_extra={
                "epsilon_charged": charged,
                "schedule": {
                    op: sum(r["op"] == op for r in self.schedule)
                    for op in ("release", "ingest", "budget", "plan",
                               "snapshot")
                },
            },
        )

    def _check_release(
        self, index, request, body, version, stored, charged, fresh, hits,
        answered,
    ) -> None:
        """Check one release answer against the reuse-dominance model:
        a request is a hit exactly when the tenant holds a stored
        release on the live snapshot with ``k ≥ k'`` and ``ε ≥ ε'``
        that is not the identical ``(k', ε')``."""
        tenant, k, epsilon = request["tenant"], request["k"], request["epsilon"]
        reuse = body.get("reuse") or {}
        hit = bool(reuse.get("hit"))
        expected_hit = any(
            k <= stored_k and epsilon <= stored_epsilon
            and (k, epsilon) != (stored_k, stored_epsilon)
            for stored_k, stored_epsilon in stored[tenant]
        )
        if hit != expected_hit:
            self.problems.append(
                f"request {index} ({tenant} k={k} ε={epsilon}): reuse hit "
                f"{hit}, dominance model says {expected_hit}"
            )
        if hit:
            if reuse.get("epsilon_charged") != 0.0:
                self.problems.append(
                    f"reuse hit {index} charged {reuse.get('epsilon_charged')}"
                )
            hits.append(index)
            cost = 0.0
        else:
            stored[tenant].add((k, epsilon))
            fresh.append(index)
            cost = float(body["epsilon"])
        charged[tenant] += cost
        entries = [
            (entry["items"], entry["noisy_frequency"])
            for entry in body["itemsets"]
        ]
        self.problems.extend(
            release_problems(entries, k, self.base.num_items)
        )
        if body.get("snapshot_version") != version:
            self.problems.append(
                f"request {index} pinned {body.get('snapshot_version')}, "
                f"served {version}"
            )
        answered.append((version, k, entries, cost))

    @staticmethod
    def _freshness(windows, ingests, fresh):
        """Per ingest: from its start until the first fresh release
        after it completes (the freshness users see)."""
        spans = []
        for ingest in ingests:
            later = [index for index in fresh if index > ingest]
            if later:
                spans.append(
                    (windows[later[0]][1] - windows[ingest][0]) * 1000.0
                )
        return spans

    def _fnrs(self, answered, batches):
        from repro.datasets.transactions import TransactionDatabase
        from repro.fim.topk import top_k_itemsets

        widest = max(k for k, _ in ANALYSTS.values())
        exact, snapshot = {}, self.base
        for version in range(len(batches) + 1):
            if version:
                snapshot = snapshot.extended(
                    TransactionDatabase(
                        [list(self.base.transaction(row))
                         for row in batches[version - 1]],
                        num_items=self.base.num_items,
                    )
                )
            exact[version] = [s for s, _ in top_k_itemsets(snapshot, widest)]
        return [
            false_negative_rate(
                exact[version], (items for items, _ in entries), k
            )
            for version, k, entries, _ in answered
        ]

