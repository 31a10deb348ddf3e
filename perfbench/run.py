"""perfbench: the repository's release benchmark.

    python3 perfbench/run.py --workload warm_release --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (``warm_release``, ``ingest_release`` or
``service_mixed``) in fresh worker processes: set-up is timed from each
worker's start to its ``READY`` line, several times, and the last
worker goes on to send the seeded schedule and check its outputs.  The
last line of standard output is the result object; the line before it
holds the run's record (host, versions, seeds, sample counts,
calibration loop, digests).  ``--trace 1`` reports the per-layer
metrics instead of the end-to-end ones; ``--quick`` runs a tiny
version of the workload for the benchmark's own tests.

See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
from metrics import PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("warm_release", "ingest_release", "service_mixed")
#: ``(name, unit)`` — the ``end_to_end`` section of BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("release_p50_ms", "ms"),
    ("releases_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("eps_per_request", "eps"),
    ("fnr", "ratio"),
    ("peak_rss_mb", "MB"),
)
#: Set-up samples per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Whole-run budget: every worker is killed past it.
RUN_BUDGET_S = 170.0


def run_worker(args, deadline: float, setup_only: bool):
    """Start one worker; returns ``(setup seconds, result or None)``."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    # A session of its own, so the watchdog also stops the service a
    # service_mixed worker started.
    process = subprocess.Popen(
        command, cwd=common.ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def kill_group() -> None:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(deadline - started, 1.0), kill_group)
    watchdog.start()
    try:
        setup_s = None
        last = ""
        for line in process.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.monotonic() - started
            elif line.strip():
                last = line
        process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
        if process.poll() is None:
            kill_group()
            process.wait()
        # A killed worker leaves its service state directory behind.
        for leftover in common.TMP.glob(f"service-{process.pid}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
    if process.returncode != 0 or setup_s is None:
        raise RuntimeError(
            f"worker exited with {process.returncode} "
            f"({'after' if setup_s is not None else 'before'} set-up)"
        )
    return setup_s, (None if setup_only else json.loads(last))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    samples = SETUP_SAMPLES if not (args.trace or args.quick) else 1
    setups = []
    try:
        for _ in range(samples - 1):
            setups.append(run_worker(args, deadline, setup_only=True)[0])
        setup_s, result = run_worker(args, deadline, setup_only=False)
    except (RuntimeError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    values = dict(result["metrics"])
    if args.trace:
        names = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values["setup_s"] = common.median(setups)
        names = END_TO_END
    problems = list(result["problems"])
    metrics = {}
    for name, unit in names:
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is {value!r}")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "setup_s_samples": setups,
        **result["record"],
        "problems": problems,
    }
    print(json.dumps({"perfbench": record}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
