"""The traced run: per-layer self time, call counts and call timings.

Everything here acts from outside the program:

* a deterministic profiler (``cProfile``) attributes host self time to
  the ``src/repro`` module of each function — the layers;
* counting and timing wrappers replace public functions and methods on
  their classes and modules for the traced replays only;
* a counting ``FlowNetwork`` observer counts fair-share rebalances and
  passes every call on to the auditor it displaced, if any.

Shard workers run in their own processes, so on ``fleet-sharded`` only
the broker side is traced; worker compute shows up as ``shard.wait_s``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time
import typing

import repro
from repro.audit.cluster import ClusterAuditor
from repro.audit.invariants import MachineAuditor, ServingAuditor
from repro.cluster.router import Router
from repro.core import DeepPlan
from repro.core.plan_cache import PlanCache
from repro.engine import executor
from repro.serving import InferenceServer, InstanceCache
from repro.shard import protocol
from repro.shard.broker import EpochBroker
from repro.simkit import FlowNetwork, Simulator

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: Layers whose self time the traced run reports, by ``src/repro`` path.
LAYERS = ("simkit.sim", "simkit.links", "engine", "core", "serving",
          "cluster", "audit", "shard", "hw", "models")


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    path = os.path.abspath(filename) if filename[:1] not in "~<" else ""
    if path.startswith(REPRO_DIR):
        package, _, module = path[len(REPRO_DIR):].partition(os.sep)
        if package == "simkit":
            return "simkit.links" if module == "links.py" else "simkit.sim"
        return package if module else "repro"
    if path.startswith(BENCH_DIR):
        return "bench"
    return "external"


class Meter:
    """Calls, host seconds and bytes recorded by one wrapper."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.nbytes = 0
        self.hits = 0


class Tracer:
    """Installs the wrappers and profiler; collects per-layer metrics."""

    def __init__(self) -> None:
        self.meters: dict[str, Meter] = {}
        self._restore: list[tuple[typing.Any, str, typing.Any]] = []
        self.profile = cProfile.Profile()

    def meter(self, name: str) -> Meter:
        return self.meters.setdefault(name, Meter())

    # -- wrappers -------------------------------------------------------

    def _replace(self, owner: typing.Any, attr: str,
                 make: typing.Callable[[typing.Any], typing.Any]) -> None:
        original = getattr(owner, attr)
        wrapped = make(original)
        # Module-level functions are also bound by name in the modules
        # that import them; rebind every such alias.
        targets = [owner]
        if not isinstance(owner, type):
            targets += [module for name, module in sys.modules.items()
                        if name.startswith("repro.") and module is not owner
                        and getattr(module, attr, None) is original]
        for target in targets:
            self._restore.append((target, attr, original))
            setattr(target, attr, wrapped)

    def count_calls(self, owner: typing.Any, attr: str, meter: str) -> None:
        m = self.meter(meter)

        def make(fn):
            def counted(*args, **kwargs):
                m.calls += 1
                return fn(*args, **kwargs)
            return counted
        self._replace(owner, attr, make)

    def time_calls(self, owner: typing.Any, attr: str, meter: str,
             nbytes: typing.Callable[[tuple, typing.Any], int] | None = None
             ) -> None:
        m = self.meter(meter)

        def make(fn):
            depth = 0

            def timed(*args, **kwargs):
                nonlocal depth
                m.calls += 1
                depth += 1
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    depth -= 1
                    if not depth:  # outermost call only
                        m.seconds += time.perf_counter() - start
                if nbytes is not None:
                    m.nbytes += nbytes(args, result)
                return result
            return timed
        self._replace(owner, attr, make)

    def install(self) -> None:
        for attr in ("timeout", "timeout_at", "event", "process", "call_at"):
            self.count_calls(Simulator, attr, "sim.events")
        for attr in ("transfer", "transfer_with_milestones"):
            self.count_calls(FlowNetwork, attr, "links.flows")
        for owner, attr in ((executor, "plan_generator"),
                            (executor, "execute_plan")):
            self.count_calls(owner, attr, "engine.cold_execs")
        self.time_calls(DeepPlan, "plan", "core.plan")
        hits = self.meter("core.plan_cache")

        def make_get(fn):
            def get(cache, key):
                plan = fn(cache, key)
                hits.calls += 1
                hits.hits += plan is not None
                return plan
            return get
        self._replace(PlanCache, "get", make_get)
        self.time_calls(InferenceServer, "deploy_instance", "serving.deploy")
        evictions = self.meter("serving.evictions")

        def make_admit(fn):
            def admit(cache, instance):
                evicted = fn(cache, instance)
                evictions.calls += len(evicted)
                return evicted
            return admit
        self._replace(InstanceCache, "admit", make_admit)
        self.count_calls(InstanceCache, "evict", "serving.evictions")
        self.time_calls(Router, "route", "cluster.route")
        for auditor in (ClusterAuditor, MachineAuditor, ServingAuditor):
            for attr in vars(auditor):
                if attr.startswith("on_"):
                    self.count_calls(auditor, attr, "audit.hooks")
        self.time_calls(EpochBroker, "route_epoch", "shard.route")
        self.time_calls(protocol, "pack_epoch", "shard.wire",
                  nbytes=lambda args, result: len(result))
        self.time_calls(protocol, "unpack_outcome", "shard.wire",
                  nbytes=lambda args, result: len(args[0]))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def observe(self, networks: typing.Sequence[FlowNetwork]) -> None:
        """Count rebalances on each network, forwarding to its auditor."""
        for network in networks:
            network.observer = CountingObserver(network.observer,
                                                self.meter("links.rebalances"))

    # -- profile ----------------------------------------------------------

    def self_seconds(self) -> tuple[dict[str, float], float]:
        """Profiled self time by layer, and the shard layer's waits.

        The wait is the cumulative time of non-``repro`` callees called
        straight from ``repro.shard`` code: spawning, pipe reads and
        ``connection.wait`` — everything the broker spends outside the
        program while workers compute.
        """
        stats = pstats.Stats(self.profile).stats  # type: ignore[attr-defined]
        totals: dict[str, float] = {}
        wait = 0.0
        for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
            layer = layer_of(filename)
            totals[layer] = totals.get(layer, 0.0) + tottime
            if layer == "external":
                wait += sum(edge[3] for caller, edge in callers.items()
                            if layer_of(caller[0]) == "shard")
        return totals, wait


class CountingObserver:
    """A ``FlowNetwork`` observer that counts and forwards."""

    def __init__(self, inner: typing.Any, rebalances: Meter) -> None:
        self.inner = inner
        self.rebalances = rebalances

    def on_rates_assigned(self, network: FlowNetwork) -> None:
        self.rebalances.calls += 1
        if self.inner is not None:
            self.inner.on_rates_assigned(network)

    def on_flow_started(self, flow: typing.Any) -> None:
        if self.inner is not None:
            self.inner.on_flow_started(flow)

    def on_flow_completed(self, flow: typing.Any) -> None:
        if self.inner is not None:
            self.inner.on_flow_completed(flow)
