"""Keyed cache of generated execution plans.

Planning is deterministic: the plan for a model depends only on the model
architecture, the machine topology, the planner's calibration knobs, and
the requested strategy/batch/GPU count.  Serving and cluster simulations
re-plan the same handful of models hundreds of times (every server, every
machine, every strategy sweep), so :class:`DeepPlan` consults a
:class:`PlanCache` keyed on exactly those determinants.

The key is explicit rather than "the planner instance" so one cache can
be shared across planners: two planners with the same machine spec and
calibration hit each other's entries, while changing any determinant —
a different machine preset, noise, seed, iteration count, strategy,
batch size or partition count — misses by construction.
"""

from __future__ import annotations

import typing

from repro.core.plan import ExecutionPlan
from repro.hw.specs import MachineSpec
from repro.models.graph import ModelSpec

__all__ = ["PlanCache", "plan_cache_key"]

#: model fingerprint x machine spec x planner calibration x plan request.
PlanKey = tuple


def plan_cache_key(model: ModelSpec, machine_spec: MachineSpec,
                   calibration: tuple[int, float, int], strategy: str,
                   batch_size: int, num_partitions: int) -> PlanKey:
    """Build the cache key for one planning request.

    The model is fingerprinted by name, layer count and total parameter
    bytes — models built from the zoo (or the audit layer's seeded random
    generator) that agree on all three are architecturally identical for
    planning purposes.  ``calibration`` is the profiler's
    ``(iterations, noise, seed)`` triple; ``num_partitions`` is
    the *resolved* partition count, so ``num_gpus=None`` and an explicit
    matching count share an entry.
    """
    return (model.name, len(model.layers), model.param_bytes,
            machine_spec, calibration, strategy, batch_size, num_partitions)


class PlanCache:
    """An unbounded plan cache with hit/miss accounting.

    Unbounded is deliberate: entries are one per (model, strategy, batch,
    machine) combination, a small set in every workload the simulator
    runs — the win is skipping re-planning, not bounding memory.
    """

    def __init__(self) -> None:
        self._plans: dict[PlanKey, ExecutionPlan] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: PlanKey) -> ExecutionPlan | None:
        """Look up *key*, counting the hit or miss."""
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
        else:
            self.hits += 1
        return plan

    def put(self, key: PlanKey, plan: ExecutionPlan) -> None:
        self._plans[key] = plan

    def clear(self) -> None:
        """Drop all entries (counters are kept; they describe history)."""
        self._plans.clear()

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._plans)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PlanCache {len(self._plans)} entries, "
                f"{self.hits} hits / {self.misses} misses>")


def resolve_plan_cache(plan_cache: "PlanCache | None | bool"
                       ) -> PlanCache | None:
    """Normalize a ``DeepPlan(plan_cache=...)`` argument.

    ``None`` (the default) and ``True`` give a private cache; ``False``
    disables caching; a :class:`PlanCache` instance is used as-is (the
    sharing idiom).
    """
    if plan_cache is None or plan_cache is True:
        return PlanCache()
    if plan_cache is False:
        return None
    return typing.cast(PlanCache, plan_cache)
