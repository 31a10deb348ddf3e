"""The metrics of one timed phase: end-to-end, per layer, and the record.

Every workload reports every name in :data:`PER_LAYER`; a layer the
workload does not reach reads 0, which is the point of running one
workload that exercises a layer beside one that bypasses it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from common import mean, median, percentile, ratio
from spans import STAGES, Attribution

#: ``(name, unit, better)`` — the ``per_layer`` section of BENCHMARK.json.
PER_LAYER = (
    ("pipeline.get_lambda.ms", "ms", "lower"),
    ("pipeline.select_items.ms", "ms", "lower"),
    ("pipeline.select_pairs.ms", "ms", "lower"),
    ("pipeline.construct_basis.ms", "ms", "lower"),
    ("pipeline.basis_freq.ms", "ms", "lower"),
    ("pipeline.get_lambda.share", "ratio", "lower"),
    ("pipeline.construct_basis.share", "ratio", "lower"),
    ("pipeline.basis_freq.share", "ratio", "lower"),
    ("core.average_case_ev.calls", "count", "lower"),
    ("engine.top_k.mines", "count", "lower"),
    ("engine.top_k.ms", "ms", "lower"),
    ("engine.bin_counts_batch.ms", "ms", "lower"),
    ("engine.conjunction_supports.ms", "ms", "lower"),
    ("engine.pairwise_supports.ms", "ms", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.extend.ms", "ms", "lower"),
    ("store.wal.appends_per_release", "count", "lower"),
    ("store.wal.fsyncs_per_release", "count", "lower"),
    ("store.wal.sync_ms", "ms", "lower"),
    ("reuse.hit_ratio", "ratio", "higher"),
    ("reuse.lookup_ms", "ms", "lower"),
    ("service.route.release.p50_ms", "ms", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("span_coverage", "ratio", "higher"),
    ("ingest.p50_ms", "ms", "lower"),
    ("ingest_to_release.p50_ms", "ms", "lower"),
    ("reuse.p50_ms", "ms", "lower"),
    ("traced.release_p50_ms", "ms", "lower"),
)


def cache_hit_ratio(before: Dict, after: Dict) -> float:
    """Hit share of the engine cache's lookups between two
    ``cache_info()`` readings (all query kinds together)."""
    hits = misses = 0
    for kind, counts in after.items():
        old = before.get(kind, {})
        hits += counts["hits"] - old.get("hits", 0)
        misses += counts["misses"] - old.get("misses", 0)
    return ratio(hits, hits + misses)


def per_layer(
    att: Attribution,
    latency_ms: Sequence[float],
    fresh: List[int],
    ingests: List[int],
    reuse_hits: List[int],
    snapshots: int,
    cache_hit: float,
    freshness_ms: Sequence[float] = (),
    children: Sequence[str] = (),
    route_p50_ms: float = 0.0,
) -> Dict[str, float]:
    """Assemble :data:`PER_LAYER` from attributed spans.

    ``latency_ms[i]`` is request ``i``'s latency as the client saw it;
    ``fresh``/``ingests``/``reuse_hits`` index the requests of each
    kind; ``freshness_ms`` holds each ingest's time to its first fresh
    release.  ``children`` names the direct child spans of a release
    seen from another process (the service's dispatch and response
    write); by default the children are the five pipeline stage spans.
    ``route_p50_ms`` is the service's own ``/v1/release`` median.
    """
    n = len(fresh)
    release_total = sum(latency_ms[index] for index in fresh)
    stage_ms = {
        stage: att.total(f"pipeline.{stage}", fresh) for stage in STAGES
    }
    per_release = [
        sum(att.per_window[index].get(f"pipeline.{stage}", 0.0)
            for stage in STAGES)
        for index in fresh
    ]
    direct = (
        [sum(att.per_window[index].get(name, 0.0) for name in children)
         for index in fresh]
        if children
        else per_release
    )
    metrics = {
        f"pipeline.{stage}.ms": ratio(stage_ms[stage], n) for stage in STAGES
    }
    for stage in ("get_lambda", "construct_basis", "basis_freq"):
        metrics[f"pipeline.{stage}.share"] = ratio(
            stage_ms[stage], release_total
        )
    metrics.update(
        {
            "core.average_case_ev.calls": ratio(
                att.total("core.average_case_ev.calls", fresh), n
            ),
            "engine.top_k.mines": ratio(
                att.total("engine.top_k.mine#n", range(len(latency_ms))),
                snapshots,
            ),
            "engine.top_k.ms": ratio(att.total("engine.top_k.mine", fresh), n),
            "engine.bin_counts_batch.ms": ratio(
                att.total("engine.bin_counts_batch", fresh), n
            ),
            "engine.conjunction_supports.ms": ratio(
                att.total("engine.conjunction_supports", fresh), n
            ),
            "engine.pairwise_supports.ms": ratio(
                att.total("engine.pairwise_supports", fresh), n
            ),
            "engine.cache.hit_ratio": cache_hit,
            "engine.extend.ms": ratio(
                att.total("engine.extend", ingests), len(ingests)
            ),
            "store.wal.appends_per_release": ratio(
                att.total("store.wal.append#n", fresh), n
            ),
            "store.wal.fsyncs_per_release": ratio(
                att.total("store.wal.fsyncs", fresh), n
            ),
            "store.wal.sync_ms": ratio(att.total("store.wal.sync", fresh), n),
            "reuse.hit_ratio": ratio(len(reuse_hits), len(reuse_hits) + n),
            "reuse.lookup_ms": mean(
                att.each("reuse.lookup", fresh + reuse_hits)
            ),
            "service.route.release.p50_ms": route_p50_ms,
            "service.overhead_ms": (
                median([latency_ms[i] - s for i, s in zip(fresh, per_release)])
                if children
                else 0.0
            ),
            "unattributed_ms": median(
                [latency_ms[i] - c for i, c in zip(fresh, direct)]
            ),
            "span_coverage": ratio(sum(direct), release_total),
            "ingest.p50_ms": median([latency_ms[i] for i in ingests]),
            "ingest_to_release.p50_ms": median(freshness_ms),
            "reuse.p50_ms": median([latency_ms[i] for i in reuse_hits]),
            "traced.release_p50_ms": median([latency_ms[i] for i in fresh]),
        }
    )
    return metrics


class Outcome:
    """What one timed phase measured, turned into the result line."""

    def __init__(
        self, recorder, windows, latency, fresh, ingests, snapshots, fnrs,
        rss, digest, cache, epsilons, reuse_hits=(), freshness=(),
        attempted=None, failed=0, route_p50_ms=0.0, report_extra=None,
        children=(),
    ) -> None:
        self.recorder = recorder
        self.windows = windows
        self.latency = latency
        self.fresh = list(fresh)
        self.ingests = list(ingests)
        self.reuse_hits = list(reuse_hits)
        self.snapshots = snapshots
        self.fnrs = fnrs
        self.rss = rss
        self.digest = digest
        self.cache = cache
        self.epsilons = epsilons
        self.freshness = list(freshness)
        self.attempted = len(latency) if attempted is None else attempted
        self.failed = failed
        self.route_p50_ms = route_p50_ms
        self.report_extra = report_extra or {}
        self.children = children

    def end_to_end(self) -> dict:
        busy_s = sum(self.latency) / 1000.0
        return {
            "release_p50_ms": median([self.latency[i] for i in self.fresh]),
            "releases_per_s": ratio(len(self.fresh), busy_s),
            "requests_per_s": ratio(len(self.latency), busy_s),
            "eps_per_request": mean(self.epsilons),
            "fnr": mean(self.fnrs),
            "peak_rss_mb": self.rss,
        }

    def per_layer(self) -> dict:
        return per_layer(
            Attribution(self.recorder, self.windows),
            self.latency, self.fresh, self.ingests, self.reuse_hits,
            self.snapshots, cache_hit_ratio(*self.cache),
            freshness_ms=self.freshness, children=self.children,
            route_p50_ms=self.route_p50_ms,
        )

    def report(self) -> dict:
        fresh = [self.latency[i] for i in self.fresh]
        return {
            "digest": self.digest,
            "samples": {
                "releases": len(fresh),
                "ingests": len(self.ingests),
                "reuse_hits": len(self.reuse_hits),
                "requests": len(self.latency),
                "fnr_releases": len(self.fnrs),
            },
            "release_p90_ms": percentile(fresh, 90),
            "ingest_p50_ms": (
                median([self.latency[i] for i in self.ingests])
                if self.ingests else None
            ),
            "ingest_to_release_p50_ms": (
                median(self.freshness) if self.freshness else None
            ),
            "reuse_p50_ms": (
                median([self.latency[i] for i in self.reuse_hits])
                if self.reuse_hits else None
            ),
            "failed_share": ratio(self.failed, self.attempted),
            **self.report_extra,
        }
