"""Tests for the keyed plan cache and its serving/cluster wiring."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import DeepPlan
from repro.core.plan_cache import PlanCache, plan_cache_key, resolve_plan_cache
from repro.hw.machine import Machine
from repro.hw.specs import a5000x2, p3_8xlarge
from repro.models import build_model
from repro.serving import InferenceServer, PoissonWorkload, ServerConfig
from repro.simkit import Simulator


@pytest.fixture(scope="module")
def bert():
    return build_model("bert-base")


class TestResolvePlanCache:
    def test_default_is_a_private_cache(self):
        default = resolve_plan_cache(None)
        assert isinstance(default, PlanCache)
        assert resolve_plan_cache(None) is not default

    def test_explicit_arguments(self):
        assert resolve_plan_cache(False) is None
        assert isinstance(resolve_plan_cache(True), PlanCache)
        shared = PlanCache()
        assert resolve_plan_cache(shared) is shared


class TestPlanCacheHits:
    def test_repeat_plan_is_a_hit_and_the_same_object(self, bert):
        planner = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=True)
        first = planner.plan(bert, "pt+dha")
        again = planner.plan(bert, "pt+dha")
        assert again is first
        assert planner.plan_cache.stats() == {
            "hits": 1, "misses": 1, "entries": 1}

    def test_cached_plan_equals_uncached_plan(self, bert):
        cached = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=True)
        uncached = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=False)
        assert uncached.plan_cache is None
        for strategy in ("baseline", "pipeswitch", "dha", "pt+dha"):
            cached.plan(bert, strategy)  # populate
            assert cached.plan(bert, strategy) == uncached.plan(bert,
                                                                strategy)

    def test_distinct_requests_miss(self, bert, gpt2=None):
        planner = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=True)
        planner.plan(bert, "pt+dha")
        planner.plan(bert, "dha")  # different strategy
        planner.plan(bert, "pt+dha", batch_size=8)  # different batch
        planner.plan(build_model("gpt2"), "pt+dha")  # different model
        assert planner.plan_cache.hits == 0
        assert planner.plan_cache.misses == 4

    def test_shared_cache_across_planners(self, bert):
        shared = PlanCache()
        a = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=shared)
        b = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=shared)
        plan = a.plan(bert, "pt+dha")
        assert b.plan(bert, "pt+dha") is plan
        assert shared.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_calibration_and_machine_invalidate(self, bert):
        """Any planning determinant in the key must separate entries."""
        shared = PlanCache()
        DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=shared).plan(bert)
        DeepPlan(p3_8xlarge(), noise=0.01, seed=3,
                 plan_cache=shared).plan(bert)  # other calibration
        DeepPlan(a5000x2(), noise=0.0, plan_cache=shared).plan(bert)
        assert shared.hits == 0
        assert shared.misses == 3
        assert len(shared) == 3

    def test_clear_keeps_counters_and_drops_entries(self, bert):
        planner = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=True)
        planner.plan(bert)
        planner.plan_cache.clear()
        assert len(planner.plan_cache) == 0
        assert planner.plan_cache.misses == 1
        planner.plan(bert)  # re-plans after the clear
        assert planner.plan_cache.misses == 2

    def test_key_is_stable_for_equivalent_models(self, bert):
        key_a = plan_cache_key(bert, p3_8xlarge(), (10, 0.0, 0), "dha", 1, 1)
        key_b = plan_cache_key(build_model("bert-base"), p3_8xlarge(),
                               (10, 0.0, 0), "dha", 1, 1)
        assert key_a == key_b


class TestReportCounters:
    def test_serving_report_exposes_cache_counters(self, bert):
        planner = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=True)
        machine = Machine(Simulator(), p3_8xlarge())
        server = InferenceServer(machine, planner, ServerConfig())
        server.deploy([(bert, 4)])
        planner.plan(bert, server.config.strategy)  # same request: a hit
        workload = PoissonWorkload(list(server.instances), rate=50.0,
                                   num_requests=8, seed=5)
        report = server.run(workload.generate())
        assert report.plan_cache_misses >= 1
        assert report.plan_cache_hits >= 1
        assert report.summary()["plan_cache_hits"] == float(
            report.plan_cache_hits)

    def test_serving_report_counters_zero_without_cache(self, bert):
        planner = DeepPlan(p3_8xlarge(), noise=0.0, plan_cache=False)
        machine = Machine(Simulator(), p3_8xlarge())
        server = InferenceServer(machine, planner, ServerConfig())
        server.deploy([(bert, 2)])
        workload = PoissonWorkload(list(server.instances), rate=50.0,
                                   num_requests=4, seed=5)
        report = server.run(workload.generate())
        assert report.plan_cache_hits == 0
        assert report.plan_cache_misses == 0

    def test_cluster_report_exposes_cache_counters(self, bert):
        cluster = Cluster(p3_8xlarge(),
                          ClusterConfig(num_machines=2, replication=2))
        cluster.deploy([(bert, 4)])
        workload = PoissonWorkload(list(cluster.instance_names), rate=50.0,
                                   num_requests=8, seed=5)
        report = cluster.run(workload.generate())
        if cluster.planner.plan_cache is not None:
            assert report.plan_cache_misses >= 1
        summary = report.summary()
        assert summary["plan_cache_hits"] == float(report.plan_cache_hits)
        assert summary["plan_cache_misses"] == float(
            report.plan_cache_misses)
