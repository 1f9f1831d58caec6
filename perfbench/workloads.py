"""The four benchmark workloads: seeded inputs, set-up, and one replay.

Each workload is built from three pieces that the runner keeps apart:

* ``inputs(seed)`` generates everything random — arrival times, target
  instances, fault schedules — with the benchmark's own numpy code, so
  the program under test only ever receives finished requests;
* ``setup()`` builds the machine or fleet and deploys the catalog
  (profiling, Algorithm 1 planning, placement): the ``setup_s`` clock;
* ``replay(system, inputs)`` serves fresh requests to termination and
  returns the run's outcome rows: the ``requests_per_s`` clock.

Outcome rows are the neutral record the checks and metrics read, so
neither depends on the report types they check.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

import numpy

from repro.cluster import Cluster, ClusterConfig, FaultEvent
from repro.core import DeepPlan
from repro.hw.machine import Machine
from repro.hw.specs import p3_8xlarge
from repro.models import build_model
from repro.models.costs import CostModel
from repro.models.zoo import MODEL_NAMES
from repro.serving import InferenceServer, Request, ServerConfig
from repro.serving.metrics import DEFAULT_SLO
from repro.shard import ShardConfig, ShardedReplay
from repro.simkit import Simulator

HERE = pathlib.Path(__file__).resolve().parent

SPEC = p3_8xlarge()
SLO = DEFAULT_SLO

#: maf-trace: the fig15 instance mix on one machine (4:4:1, 144 instances).
FIG15_MIX = (("bert-base", 64), ("roberta-base", 64), ("gpt2", 16))
#: cold-storm: all eight zoo models, 12 instances each; 80 of the 96 fit
#: warm, and a uniform stream cold-starts ~30 % of requests.  At 45 req/s the queue stays flat over the trace (at 52 it
#: grows; at 100 p50 reaches seconds) and most requests queue or
#: contend, so p50 is not pinned to one model's warm service time.
COLD_STORM_MIX = tuple((name, 12) for name in MODEL_NAMES)
COLD_STORM_RATE = 45.0
COLD_STORM_REQUESTS = 6000
#: fleet-*: 16 machines, the fig15 mix x7 (1008 logical instances, 2016
#: replicas: 126 per machine, slightly more than fit warm, so cold starts
#: come steadily and not only after faults), uniform arrivals at
#: 150 req/s per machine, the paper's per-machine rate.  At 150 req/s
#: for the whole fleet every machine idles and p50, p99 and cold p50 are
#: one model's service time on every seed.
FLEET_MACHINES = 16
FLEET_MIX = tuple((name, 7 * count) for name, count in FIG15_MIX)
FLEET_RATE = 150.0 * FLEET_MACHINES
FLEET_REQUESTS = 20000
#: Each fault kind (crash, GPU loss, link degradation) this many times.
FLEET_FAULTS_PER_KIND = 2
FLEET_SHARDS = 2


class Row(typing.NamedTuple):
    """One request's terminal outcome, read off the program's report."""

    request_id: int
    status: str  # "completed", "shed" or "dropped"
    instance: str
    #: Serving machine ("" where the report does not name it).
    machine: str
    #: Times are ``None`` for requests that never ran (shed, dropped).
    submitted: float | None
    started: float | None
    finished: float | None
    cold: bool


@dataclasses.dataclass
class Inputs:
    """A workload's generated input: the request schedule and faults."""

    #: (arrival time, instance name) in request-id order.
    arrivals: list[tuple[float, str]]
    faults: list[FaultEvent]

    def requests(self) -> list[Request]:
        """Fresh request objects (the program stamps them while serving)."""
        return [Request(request_id=i, instance_name=name, arrival_time=t)
                for i, (t, name) in enumerate(self.arrivals)]


@dataclasses.dataclass
class Replay:
    """What one replay produced."""

    rows: list[Row]
    #: The report's own p50, p99 and goodput fraction (check (c)).
    reported: tuple[float, float, float]
    retries: int = 0
    epochs: int = 0
    worker_restarts: int = 0
    #: Merged per-shard histogram counts vs the canonical one (check (e)).
    histograms: tuple[typing.Any, typing.Any] | None = None


def _instances(mix: typing.Sequence[tuple[str, int]]) -> list[str]:
    return [f"{model}#{k}" for model, count in mix for k in range(count)]


def _poisson(instances: list[str], rate: float, count: int,
             rng: numpy.random.Generator) -> list[tuple[float, str]]:
    times = numpy.cumsum(rng.exponential(1.0 / rate, size=count))
    targets = rng.integers(0, len(instances), size=count)
    return [(float(t), instances[int(k)]) for t, k in zip(times, targets)]


def _maf_arrivals(seed: int) -> list[tuple[float, str]]:
    """The checked-in MAF counts, each invocation placed by *seed*."""
    data = json.loads((HERE / "maf_counts.json").read_text())
    bucket = data["bucket_seconds"]
    rng = numpy.random.default_rng(seed)
    arrivals = []
    for name, counts in data["counts"].items():
        for index, count in enumerate(counts):
            for t in rng.uniform(index * bucket, (index + 1) * bucket,
                                 size=count):
                arrivals.append((float(t), name))
    arrivals.sort()
    return arrivals


def _fleet_faults(duration: float, rng: numpy.random.Generator
                  ) -> list[FaultEvent]:
    """Crash, GPU-loss and link-degradation faults on even machines.

    Replicas sit on neighbouring machines, so faulting only even ones
    always leaves every instance a live replica and no request drops.
    Outages last 1-3 % of the trace: long enough to orphan queued work
    and force retries, short enough that one unlucky crash does not set
    the tail on its own.
    """
    machines = [f"m{i}" for i in range(0, FLEET_MACHINES, 2)]
    links = Machine(Simulator(), SPEC).link_names()
    kinds = ("crash", "gpu", "link") * FLEET_FAULTS_PER_KIND
    starts = numpy.sort(rng.uniform(0.1, 0.8, size=len(kinds))) * duration
    order = rng.permutation(len(machines))
    busy_until: dict[str, float] = {}
    events = []
    for k, (kind, start) in enumerate(zip(kinds, starts)):
        machine = machines[int(order[k % len(machines)])]
        start = max(float(start), busy_until.get(machine, 0.0))
        end = start + float(rng.uniform(0.01, 0.03)) * duration
        if kind == "crash":
            events += [FaultEvent(start, machine, "crash"),
                       FaultEvent(end, machine, "recover")]
        elif kind == "gpu":
            gpu = int(rng.integers(SPEC.gpu_count))
            events += [FaultEvent(start, machine, "gpu_fail", gpu=gpu),
                       FaultEvent(end, machine, "gpu_recover", gpu=gpu)]
        else:
            link = links[int(rng.integers(len(links)))]
            factor = float(rng.uniform(0.1, 0.4))
            events += [FaultEvent(start, machine, "link_degrade", link=link,
                                  factor=factor),
                       FaultEvent(end, machine, "link_restore", link=link)]
        busy_until[machine] = end
    return sorted(events)


def _fleet_inputs(seed: int) -> Inputs:
    rng = numpy.random.default_rng([seed, 0])
    arrivals = _poisson(_instances(FLEET_MIX), FLEET_RATE, FLEET_REQUESTS,
                        rng)
    fault_rng = numpy.random.default_rng([seed, 1])
    return Inputs(arrivals, _fleet_faults(arrivals[-1][0], fault_rng))


def _fleet_config(audit: bool) -> ClusterConfig:
    return ClusterConfig(num_machines=FLEET_MACHINES, replication=2,
                         policy="affinity", breaker_cooldown=0.0,
                         audit=audit)


def _record_row(record: typing.Any, machine: str = "") -> Row:
    return Row(record.request_id, "completed", record.instance_name, machine,
               record.submitted_at, record.started_at, record.finished_at,
               record.cold_start)


def _terminal_row(request_id: int, status: str, instance: str,
                  machine: str = "", at: float | None = None) -> Row:
    return Row(request_id, status, instance, machine, None, None, at, False)


def _reported(metrics: typing.Any) -> tuple[float, float, float]:
    return metrics.p50_latency, metrics.p99_latency, metrics.goodput


class Workload:
    """One named workload; subclasses fill in the three pieces."""

    name = ""
    mix: typing.Sequence[tuple[str, int]] = ()
    #: Shard worker processes a replay starts (``peak_rss_mb`` counts them).
    worker_processes = 0

    def inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def setup(self) -> typing.Any:
        raise NotImplementedError

    def replay(self, system: typing.Any, inputs: Inputs) -> Replay:
        raise NotImplementedError

    def oracle(self, inputs: Inputs) -> Replay | None:
        """A reference replay the timed runs must equal, if any."""
        return None

    def networks(self, system: typing.Any) -> list[typing.Any]:
        """The in-process ``FlowNetwork``s of a built system."""
        return []

    def service_floors(self) -> dict[str, float]:
        """Per-model in-memory compute time: no service can be shorter."""
        costs = CostModel(SPEC)
        return {model: costs.model_exec_inmem(build_model(model), 1)
                for model, _ in self.mix}


class _SingleMachine(Workload):
    def setup(self) -> InferenceServer:
        server = InferenceServer(Machine(Simulator(), SPEC), DeepPlan(SPEC),
                                 ServerConfig(strategy="pt+dha"))
        server.deploy([(build_model(model), count)
                       for model, count in self.mix])
        return server

    def replay(self, system: InferenceServer, inputs: Inputs) -> Replay:
        report = system.run(inputs.requests())
        rows = [_record_row(r) for r in report.metrics.records]
        rows += [_terminal_row(r.request_id, "shed", r.instance_name)
                 for r in system.shed_requests]
        return Replay(rows, _reported(report.metrics))

    def networks(self, system: InferenceServer) -> list[typing.Any]:
        return [system.machine.network]


class MafTrace(_SingleMachine):
    name = "maf-trace"
    mix = FIG15_MIX

    def inputs(self, seed: int) -> Inputs:
        return Inputs(_maf_arrivals(seed), [])


class ColdStorm(_SingleMachine):
    name = "cold-storm"
    mix = COLD_STORM_MIX

    def inputs(self, seed: int) -> Inputs:
        rng = numpy.random.default_rng(seed)
        return Inputs(_poisson(_instances(self.mix), COLD_STORM_RATE,
                               COLD_STORM_REQUESTS, rng), [])


class FleetAudit(Workload):
    name = "fleet-audit"
    mix = FLEET_MIX

    def inputs(self, seed: int) -> Inputs:
        return _fleet_inputs(seed)

    def setup(self) -> Cluster:
        cluster = Cluster(SPEC, _fleet_config(audit=True))
        cluster.deploy([(build_model(model), count)
                        for model, count in self.mix])
        return cluster

    def replay(self, system: Cluster, inputs: Inputs) -> Replay:
        report = system.run(inputs.requests(), fault_schedule=inputs.faults)
        rows = [_record_row(r) for r in report.metrics.records]
        rows += [_terminal_row(r.request_id, "shed", r.instance_name)
                 for r in report.shed]
        rows += [_terminal_row(r.request_id, "dropped", r.instance_name)
                 for r in report.dropped]
        return Replay(rows, _reported(report.metrics), retries=report.retries)

    def networks(self, system: Cluster) -> list[typing.Any]:
        return [cm.machine.network for cm in system.machines]


class FleetSharded(Workload):
    name = "fleet-sharded"
    mix = FLEET_MIX
    worker_processes = FLEET_SHARDS

    def inputs(self, seed: int) -> Inputs:
        return _fleet_inputs(seed)

    def _build(self, shard: ShardConfig) -> ShardedReplay:
        replay = ShardedReplay(SPEC, _fleet_config(audit=False), shard)
        replay.deploy(self.mix)
        return replay

    def setup(self) -> ShardedReplay:
        return self._build(ShardConfig(num_shards=FLEET_SHARDS,
                                       backend="process"))

    def replay(self, system: ShardedReplay, inputs: Inputs) -> Replay:
        report = system.run(inputs.requests(), fault_schedule=inputs.faults)
        rows = [_record_row(c.record, machine=c.machine_name)
                for c in report.completions]
        rows += [_terminal_row(s.request_id, "shed", "", s.machine_name,
                               s.time) for s in report.sheds]
        rows += [_terminal_row(p.request_id, "dropped", p.instance_name)
                 for p in report.dropped]
        merged = report.merged_histogram()
        canonical = report.metrics.histogram
        return Replay(rows, _reported(report.metrics),
                      retries=report.ledger.retries, epochs=report.epochs,
                      worker_restarts=report.worker_restarts,
                      histograms=((merged.counts, merged.total),
                                  (canonical.counts, canonical.total)))

    def oracle(self, inputs: Inputs) -> Replay:
        """The single-simulator serial replay of the same input."""
        return self.replay(self._build(ShardConfig(num_shards=1,
                                                   backend="serial")),
                           inputs)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    MafTrace(), ColdStorm(), FleetAudit(), FleetSharded())}
