"""Spawn-safety of the sharded-replay plumbing (issue satellite).

The process backend starts workers with ``multiprocessing``'s *spawn*
method: nothing is inherited, so every object crossing the pipe — and
every seed a worker reconstructs state from — must survive pickling
bit-for-bit.  These tests pin that down at two levels:

* **wire level** — configs, fault schedules and the full
  :class:`~repro.shard.protocol.WorkerInit` round-trip through pickle
  unchanged;
* **stream level** — a real spawned child, handed only seeds,
  regenerates the exact fault schedule and Poisson arrival stream the
  parent built (the regression the per-machine
  :class:`~repro.cluster.faults.FaultInjector` refactor exists for).

Spawn also means every worker pays its interpreter's imports at boot,
so the last test pins that the worker module stays free of ``networkx``.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import FaultInjector, random_fault_schedule
from repro.hw.specs import p3_8xlarge
from repro.serving.server import ServerConfig
from repro.serving.workload import PoissonWorkload
from repro.shard import ShardConfig, WorkerInit
from repro.units import MS

NAMES = ("m0", "m1", "m2", "m3")


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestWirePicklability:
    def test_cluster_config_round_trips(self):
        config = ClusterConfig(num_machines=4, replication=2,
                               policy="least-loaded", max_retries=2,
                               retry_backoff=3 * MS, deadline=0.4,
                               audit=True)
        assert roundtrip(config) == config

    def test_shard_config_round_trips(self):
        shard = ShardConfig(num_shards=4, epoch_length=50 * MS,
                            router_latency=2 * MS, backend="process")
        assert roundtrip(shard) == shard

    @pytest.mark.parametrize("granularity,kwargs", [
        ("machine", {}),
        ("device", {"gpu_count": 4, "link_names": ("pcie", "nvlink")}),
        ("mixed", {"gpu_count": 4, "link_names": ("pcie",)}),
    ])
    def test_fault_schedules_round_trip(self, granularity, kwargs):
        schedule = random_fault_schedule(NAMES, 5, 30.0, seed=11,
                                         granularity=granularity, **kwargs)
        clone = roundtrip(schedule)
        assert clone == schedule
        # FaultEvent ordering must survive too — the injector relies on
        # sorted processing.
        assert sorted(clone) == sorted(schedule)

    def test_worker_init_round_trips(self):
        schedule = random_fault_schedule(NAMES[:2], 3, 20.0, seed=5,
                                         granularity="mixed", gpu_count=4)
        init = WorkerInit(
            shard_id=1,
            spec=p3_8xlarge(),
            machine_names=NAMES[:2],
            placements=(("m0", "resnet50#0", "resnet50"),
                        ("m1", "bert-base#0", "bert-base")),
            server=ServerConfig(slo=0.2, prewarm=False, audit=True),
            prewarm=True,
            audit=True,
            fault_schedule=tuple(schedule),
            watch_device_faults=True)
        assert roundtrip(init) == init

    def test_injector_accepts_unpickled_schedule(self):
        """An injector built from an unpickled schedule is equivalent.

        The injector itself holds a live target and never pickles; what
        must survive spawn is its *schedule*, which the worker replays
        against a fresh per-machine injector in the child.
        """
        schedule = random_fault_schedule(NAMES, 4, 25.0, seed=9,
                                         granularity="mixed", gpu_count=4,
                                         link_names=("pcie",))
        target = _StubTarget()
        original = FaultInjector(target, schedule)
        restored = FaultInjector(target, roundtrip(schedule))
        assert restored.schedule == original.schedule
        assert [dataclass_tuple(e) for e in restored.schedule] \
            == [dataclass_tuple(e) for e in original.schedule]

    def test_injector_validation_survives_round_trip(self):
        from repro.cluster.faults import FaultEvent
        from repro.errors import WorkloadError
        bad = [FaultEvent(time=1.0, machine_name="m0", action="gpu_fail",
                          gpu=99)]
        with pytest.raises(WorkloadError):
            FaultInjector(_StubTarget(), roundtrip(bad))


def dataclass_tuple(event):
    return (event.time, event.machine_name, event.action, event.gpu,
            event.link, event.factor)


class _StubHardware:
    gpu_count = 4

    def link_names(self):
        return ("pcie",)


class _StubMember:
    machine = _StubHardware()


class _StubTarget:
    """Just enough of the duck-typed fault target to validate schedules."""

    def machine(self, name):
        from repro.errors import WorkloadError
        if name not in NAMES:
            raise WorkloadError(f"unknown machine {name!r}")
        return _StubMember()


# -- in-child stream reconstruction -----------------------------------------------------
#
# Spawn re-imports this module in the child, so the helpers below must
# be module-level (lambdas/closures do not pickle).

def _child_fault_digest(seed):
    schedule = random_fault_schedule(NAMES, 6, 40.0, seed=seed,
                                     granularity="mixed", gpu_count=4,
                                     link_names=("pcie",))
    return tuple(dataclass_tuple(event) for event in schedule)


def _child_arrival_digest(seed):
    requests = PoissonWorkload(["resnet50#0", "bert-base#0"], rate=50.0,
                               num_requests=80, seed=seed).generate()
    return tuple((r.request_id, r.instance_name, r.arrival_time)
                 for r in requests)


def _run_in_spawned_child(function, *args):
    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        return pool.apply(function, args)


class TestInChildReconstruction:
    def test_child_rebuilds_identical_fault_schedule(self):
        seed = 1234
        parent = _child_fault_digest(seed)
        child = _run_in_spawned_child(_child_fault_digest, seed)
        assert child == parent

    def test_child_rebuilds_identical_arrival_stream(self):
        seed = 42
        parent = _child_arrival_digest(seed)
        child = _run_in_spawned_child(_child_arrival_digest, seed)
        assert child == parent

    def test_distinct_seeds_give_distinct_streams(self):
        assert _child_fault_digest(1) != _child_fault_digest(2)
        assert _child_arrival_digest(1) != _child_arrival_digest(2)


class TestLeanWorkerBoot:
    def test_worker_import_does_not_load_networkx(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, repro.shard.worker; "
                 "assert 'networkx' not in sys.modules, 'networkx loaded'")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
