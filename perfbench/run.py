r"""Run one benchmark workload; print its metrics as a JSON last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload maf-trace --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a few
untraced replays, then traced ones, and reports the per-layer metrics
and the tracing overhead instead.  Workloads: maf-trace, cold-storm,
fleet-audit, fleet-sharded.  See perfbench/README.md.

Each run repeats whole rounds — build the system, replay the seeded
input to termination — until ``--seconds`` have passed, then checks
every round's outputs (perfbench/checks.py).  The module is safe to
import: ``spawn``-started shard workers re-import it as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``setup_s`` is the median of at least this many set-ups ...
SETUP_MIN_REPS = 5
#: ... and of enough of them to fill this much host time (cheap set-ups
#: are noisy one at a time).
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPS = 50
#: Share of a traced run spent on untraced replays, the overhead base.
UNTRACED_SHARE = 1 / 3


def _percentile_ms(values: typing.Sequence[float], q: float) -> float:
    from checks import percentile
    return percentile(values, q) * 1e3 if values else 0.0


def _time_setup(workload: typing.Any, setups: list[float]) -> typing.Any:
    gc.collect()
    start = time.perf_counter()
    system = workload.setup()
    setups.append(time.perf_counter() - start)
    return system


class Tally:
    """Keeps the first replay and checks every later one against it.

    Later rounds' rows are dropped once checked, so peak memory does not
    grow with the number of rounds a run fits in.
    """

    def __init__(self) -> None:
        self.first: typing.Any = None
        self.reference: list | None = None
        self.rounds = 0
        self.failed = 0
        self.worker_restarts = 0
        self.failures: list[Exception] = []

    def add(self, replay: typing.Any) -> None:
        import checks
        self.rounds += 1
        self.failed += sum(1 for r in replay.rows if r.status != "completed")
        self.worker_restarts += replay.worker_restarts
        try:
            if replay.histograms is not None:
                checks.check_histograms(replay.histograms)
            if self.first is None:
                self.first = replay
                self.reference = checks.signature(replay.rows)
            else:
                checks.check_signature(replay.rows, self.reference)
        except checks.CheckFailed as failure:
            self.failures.append(failure)


def _rounds(workload: typing.Any, inputs: typing.Any, seconds: float,
            setups: list[float], tally: Tally, tracer: typing.Any = None
            ) -> list[float]:
    """Whole rounds until *seconds* have passed (at least one).

    A round builds a fresh system (timed into *setups*) and replays the
    input once; returns each replay's host wall time.
    """
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    while not walls or time.perf_counter() < deadline:
        system = _time_setup(workload, setups)
        if tracer is not None:
            tracer.observe(workload.networks(system))
        gc.collect()
        if tracer is not None:
            tracer.profile.enable()
        start = time.perf_counter()
        replay = workload.replay(system, inputs)
        walls.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.profile.disable()
        del system
        tally.add(replay)
        del replay
    return walls


def _peak_rss_mb(worker_processes: int) -> float:
    """Peak RSS of this process plus its shard workers, in MB.

    ``RUSAGE_CHILDREN`` reports the largest waited-for child, so the
    workers count as ``worker_processes`` times that peak: an upper
    bound on their combined peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_processes * child) / 1024.0


def _sim_metrics(rows: typing.Sequence[typing.Any], slo: float
                 ) -> dict[str, tuple[float, str]]:
    done = [r for r in rows if r.status == "completed"]
    latencies = [r.finished - r.submitted for r in done]
    in_slo = sum(1 for latency in latencies if latency <= slo)
    return {
        "sim_p50_ms": (_percentile_ms(latencies, 50), "ms"),
        "sim_p99_ms": (_percentile_ms(latencies, 99), "ms"),
        "sim_goodput_rps": (in_slo / max(r.finished for r in done), "req/s"),
        "sim_cold_p50_ms": (_percentile_ms(
            [r.finished - r.submitted for r in done if r.cold], 50), "ms"),
    }


def _layer_metrics(tracer: typing.Any, traced: list[float],
                   untraced: list[float], tally: Tally
                   ) -> dict[str, tuple[float, str]]:
    from tracing import LAYERS
    n = len(traced)
    m = tracer.meters
    first = tally.first
    done = [r for r in first.rows if r.status == "completed"]
    self_s, wait_s = tracer.self_seconds()
    flows = m["links.flows"].calls
    plans = m["core.plan_cache"]
    metrics = {f"{layer}.self_s": (self_s.get(layer, 0.0) / n, "s")
               for layer in LAYERS + ("external",)}
    metrics.update({
        "simkit.sim.events_per_req": (
            m["sim.events"].calls / (n * len(done)), "1/req"),
        "simkit.links.flows_per_req": (flows / (n * len(done)), "1/req"),
        "simkit.links.rebalances_per_flow": (
            m["links.rebalances"].calls / flows if flows else 0.0, "1/flow"),
        "engine.cold_execs": (m["engine.cold_execs"].calls / n, "count"),
        "core.plan_s": (m["core.plan"].seconds / n, "s"),
        "core.plans": (m["core.plan"].calls / n, "count"),
        "core.plan_cache_hit_ratio": (
            plans.hits / plans.calls if plans.calls else 0.0, "ratio"),
        "serving.deploy_s": (m["serving.deploy"].seconds / n, "s"),
        "serving.cold_starts": (sum(1 for r in done if r.cold), "count"),
        "serving.evictions": (m["serving.evictions"].calls / n, "count"),
        "serving.sim_queue_p99_ms": (_percentile_ms(
            [r.started - r.submitted for r in done], 99), "ms"),
        "serving.sim_service_p50_ms": (_percentile_ms(
            [r.finished - r.started for r in done], 50), "ms"),
        "cluster.route_s": (m["cluster.route"].seconds / n, "s"),
        "cluster.routes": (m["cluster.route"].calls / n, "count"),
        "cluster.retries": (first.retries, "count"),
        "audit.hook_calls": (m["audit.hooks"].calls / n, "count"),
        "shard.route_s": (m["shard.route"].seconds / n, "s"),
        "shard.wire_s": (m["shard.wire"].seconds / n, "s"),
        "shard.wire_bytes": (m["shard.wire"].nbytes / n, "bytes"),
        "shard.epochs": (first.epochs, "count"),
        "shard.wait_s": (wait_s / n, "s"),
        "shard.worker_restarts": (tally.worker_restarts / tally.rounds,
                                  "count"),
        "trace.overhead": (statistics.median(traced)
                           / statistics.median(untraced), "ratio"),
    })
    return metrics


def run(workload_name: str, seed: int, seconds: float, traced: bool
        ) -> tuple[dict, bool]:
    """One benchmark run: (result object, outputs correct)."""
    import checks
    from workloads import SLO, WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.inputs(seed)
    floors = workload.service_floors()
    setups: list[float] = []
    tally = Tally()
    if traced:
        from tracing import Tracer
        untraced = _rounds(workload, inputs, seconds * UNTRACED_SHARE,
                           setups, tally)
        tracer = Tracer()
        tracer.install()
        try:
            walls = _rounds(workload, inputs, seconds * (1 - UNTRACED_SHARE),
                            setups, tally, tracer)
        finally:
            tracer.uninstall()
    else:
        start = time.perf_counter()
        while (len(setups) < SETUP_MIN_REPS
               or time.perf_counter() - start < SETUP_MIN_SECONDS) \
                and len(setups) < SETUP_MAX_REPS:
            _time_setup(workload, setups)
        walls = _rounds(workload, inputs, seconds, setups, tally)
        peak_rss_mb = _peak_rss_mb(workload.worker_processes)

    first = tally.first
    failures = tally.failures
    try:
        checks.check_all(first.rows, first.reported, inputs.arrivals,
                         floors, SLO)
        oracle = workload.oracle(inputs)
        if oracle is not None:
            checks.check_signature(oracle.rows, tally.reference)
    except checks.CheckFailed as failure:
        failures.append(failure)
    for failure in failures:
        print(f"check failed on {workload_name}: {failure}",
              file=sys.stderr)
    checks.self_test(first.rows, first.reported, inputs.arrivals, floors,
                     SLO)

    if traced:
        metrics = _layer_metrics(tracer, walls, untraced, tally)
    else:
        metrics = {
            "requests_per_s": (statistics.median(
                len(inputs.arrivals) / wall for wall in walls), "req/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics.update(_sim_metrics(first.rows, SLO))
    result = {
        "correct": not failures,
        "attempted": len(inputs.arrivals) * tally.rounds,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, not failures


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if one started, and reap it.

    Spawning shard workers starts the tracker as a separate process; left
    alone it outlives this one, so the run would end with a process still
    running.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Shard workers inherit sys.path, so they find the program too.
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: the program is not importable from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: "
                     f"{', '.join(WORKLOADS)}")
    try:
        result, correct = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
