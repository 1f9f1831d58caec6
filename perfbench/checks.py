"""Output checks (a)-(e) and the self-tests that prove each can fail.

The checks read only the benchmark's own ``Row`` records, the input
schedule the benchmark generated, and the handful of numbers the
program's report states.  Percentiles and goodput are recomputed here
with numpy; nothing calls the metric code under test.

* (a) every submitted id ends exactly once: completed, shed or dropped;
* (b) ``submitted`` is the scheduled arrival (an open loop: no
  coordinated omission) and ``submitted <= started <= finished``;
* (c) the report's p50, p99 (exact rank, ``method="higher"``) and goodput
  equal their recomputation from the raw rows;
* (d) no service time (``finished - started``) is below the model's
  in-memory compute time: DHA reads and loading only add time;
* (e) the outcome signature equals a reference replay's, and the merged
  per-shard histograms equal the canonical one count for count.
"""

from __future__ import annotations

import bisect
import collections
import math
import typing

import numpy

from workloads import Row


class CheckFailed(Exception):
    """A program output broke one of the checks."""


def _completed(rows: typing.Sequence[Row]) -> list[Row]:
    return [r for r in rows if r.status == "completed"]


def percentile(values: typing.Sequence[float], q: float) -> float:
    """Exact-rank percentile: a value some request actually had."""
    return float(numpy.percentile(numpy.asarray(values), q,
                                  method="higher"))


def check_ids(rows: typing.Sequence[Row], submitted: int) -> None:
    """(a) completed, shed and dropped ids are the submitted ids, once."""
    counts = collections.Counter(r.request_id for r in rows)
    repeated = [i for i, n in counts.items() if n > 1]
    if repeated:
        raise CheckFailed(f"(a) requests ended more than once: "
                          f"{sorted(repeated)[:5]}")
    if set(counts) != set(range(submitted)):
        missing = sorted(set(range(submitted)) - set(counts))
        extra = sorted(set(counts) - set(range(submitted)))
        raise CheckFailed(f"(a) outcome ids differ from the submitted ids: "
                          f"missing {missing[:5]}, unknown {extra[:5]}")


def check_times(rows: typing.Sequence[Row],
                arrivals: typing.Sequence[tuple[float, str]]) -> None:
    """(b) open-loop submission and ordered timestamps."""
    for r in _completed(rows):
        due, instance = arrivals[r.request_id]
        if r.submitted != due or r.instance != instance:
            raise CheckFailed(
                f"(b) request {r.request_id} submitted at {r.submitted!r} "
                f"for {r.instance}, scheduled {due!r} for {instance}")
        if not r.submitted <= r.started <= r.finished:
            raise CheckFailed(
                f"(b) request {r.request_id} timestamps out of order: "
                f"{r.submitted!r} / {r.started!r} / {r.finished!r}")


def check_report(rows: typing.Sequence[Row],
                 reported: tuple[float, float, float], slo: float) -> None:
    """(c) the report's p50, p99 and goodput match the raw rows."""
    latencies = [r.finished - r.submitted for r in _completed(rows)]
    in_slo = sum(1 for latency in latencies if latency <= slo)
    expected = (percentile(latencies, 50), percentile(latencies, 99),
                in_slo / len(rows))
    for name, want, got in zip(("p50", "p99", "goodput"), expected,
                               reported):
        if want != got:
            raise CheckFailed(f"(c) report {name} {got!r}, recomputed "
                              f"{want!r}")


def check_service_floor(rows: typing.Sequence[Row],
                        floors: dict[str, float]) -> None:
    """(d) no service time beats the model's in-memory compute time."""
    for r in _completed(rows):
        floor = floors[r.instance.partition("#")[0]]
        if r.finished - r.started < floor:
            raise CheckFailed(
                f"(d) request {r.request_id} served in "
                f"{r.finished - r.started!r} s, below the in-memory "
                f"compute time {floor!r} s of {r.instance}")


def signature(rows: typing.Sequence[Row]) -> list[Row]:
    """Every request's exact outcome, in request-id order."""
    return sorted(rows)


def check_signature(rows: typing.Sequence[Row],
                    reference: typing.Sequence[Row]) -> None:
    """(e) the outcome signature equals the reference's, bit for bit."""
    mine = signature(rows)
    if mine != reference:
        diff = next((pair for pair in zip(mine, reference)
                     if pair[0] != pair[1]), None)
        raise CheckFailed(f"(e) {len(mine)} outcomes differ from the "
                          f"{len(reference)} of the reference; first "
                          f"difference: {diff}")


def check_histograms(histograms: tuple[typing.Any, typing.Any]) -> None:
    """(e) merged per-shard histogram == canonical, count for count."""
    merged, canonical = histograms
    if merged != canonical:
        raise CheckFailed("(e) merged per-shard histogram differs from the "
                          "canonical histogram")


def check_all(rows: typing.Sequence[Row], reported: tuple[float, float, float],
              arrivals: typing.Sequence[tuple[float, str]],
              floors: dict[str, float], slo: float) -> None:
    """Checks (a)-(d) on one replay."""
    check_ids(rows, len(arrivals))
    check_times(rows, arrivals)
    check_report(rows, reported, slo)
    check_service_floor(rows, floors)


def _must_fail(check: typing.Callable[[], None], case: str) -> None:
    try:
        check()
    except CheckFailed:
        return
    raise AssertionError(f"self-test: the check passed on {case}")


def self_test(rows: list[Row], reported: tuple[float, float, float],
              arrivals: typing.Sequence[tuple[float, str]],
              floors: dict[str, float], slo: float) -> None:
    """Corrupt a passing replay in each way a check must catch.

    Raises ``AssertionError`` if any check accepts its corrupted input.
    """
    completed = _completed(rows)
    _must_fail(lambda: check_ids(rows + [rows[0]], len(arrivals)),
               "a duplicated request")
    victim = next(r for r in completed if r.started < r.finished)
    swapped = [r._replace(started=r.finished, finished=r.started)
               if r is victim else r for r in rows]
    _must_fail(lambda: check_times(swapped, arrivals),
               "swapped started/finished timestamps")
    latencies = sorted(r.finished - r.submitted for r in completed)
    rank = bisect.bisect_left(latencies, reported[1])
    # The nearest rank holding another value (equal neighbours would make
    # an off-by-one rank invisible in any output).
    off_by_one = next(latencies[k] for k in sorted(
        range(len(latencies)), key=lambda k: abs(k - rank))
        if latencies[k] != reported[1])
    _must_fail(lambda: check_report(rows, (reported[0], off_by_one,
                                           reported[2]), slo),
               "a p99 one rank off")
    fast = [r._replace(finished=r.started) if r is victim else r
            for r in rows]
    _must_fail(lambda: check_service_floor(fast, floors),
               "a service time below the in-memory floor")
    nudged = [r._replace(finished=math.nextafter(r.finished, math.inf))
              if r is victim else r for r in rows]
    _must_fail(lambda: check_signature(nudged, signature(rows)),
               "a signature one ulp off")
