"""Algorithm 1 without timeline memoization: the planner's reference.

:func:`reference_plan` recomputes the full pipeline timeline from the
decision vector before examining each layer — the direct reading of the
paper's Step 4.  :meth:`LayerExecutionPlanner.plan` refreshes a
:class:`~repro.core.stall.TimelineMemo` from the first changed layer
instead; the two must return identical decisions.
"""

from __future__ import annotations

from repro.core.plan import ExecMethod
from repro.core.planner import LayerExecutionPlanner

__all__ = ["reference_plan"]


def reference_plan(planner: LayerExecutionPlanner) -> list[ExecMethod]:
    """Run Algorithm 1 recomputing the full timeline per layer."""
    decisions = planner.all_loaded()
    for i in range(len(planner.costs)):
        timeline = planner._timeline(decisions)
        stall = timeline.stall_of(i)
        if stall <= 0:
            continue
        planner._reduce_stall(i, stall, decisions)
    return decisions
