"""Reference max-min fair allocation for :class:`~repro.simkit.FlowNetwork`.

:func:`fill_reference` is the original dict-bookkeeping weighted
progressive filling, the executable specification of the production
flat-array kernel.  Two views of a network are built on it:

* :func:`reference_fair_rates` — one global fill over every active flow,
  no component decomposition;
* :func:`component_refill` — every connected component refilled from
  scratch, with the per-component float evaluation order (ascending
  flow id) the incremental allocator uses, so its rates must equal the
  production rates exactly.

All three leave flow state untouched and return the would-be rates.
"""

from __future__ import annotations

import operator
import typing

from repro.simkit.links import Flow, FlowNetwork, Link

__all__ = ["component_refill", "fill_reference", "reference_fair_rates"]

_INF = float("inf")

_flow_id = operator.attrgetter("id")


def reference_fair_rates(network: FlowNetwork) -> dict[Flow, float]:
    """Whole-network progressive filling, without touching flow state.

    The original from-scratch reference implementation: one global
    fill over every active flow, no component decomposition.  Returns
    the would-be rate per flow; differential tests compare this
    against the incremental allocator's assignments.
    """
    rates: dict[Flow, float] = {}
    fill_reference(sorted(network._active, key=_flow_id), rates)
    return rates


def component_refill(network: FlowNetwork) -> dict[Flow, float]:
    """From-scratch refill of every component of *network*.

    Each component is filled independently, in ascending flow id, with
    :func:`fill_reference` — the arithmetic the incremental path uses,
    so its rates must be bit-identical to the ones it assigned.
    """
    rates: dict[Flow, float] = {}
    visited: set[Flow] = set()
    for flow in network._active:
        if flow in visited:
            continue
        component = network._component_of((flow,))
        visited |= component
        fill_reference(sorted(component, key=_flow_id), rates)
    return rates


def fill_reference(ordered: typing.Sequence[Flow],
                   into: dict[Flow, float] | None = None) -> None:
    """The original dict-bookkeeping progressive filling.

    Writes rates to ``flow.rate``, or into *into* when given
    (reference mode).
    """
    if len(ordered) == 1:
        flow = ordered[0]
        weight = flow.weight
        rate = _INF
        for link in flow.path:
            share = link.bandwidth / weight
            if share < rate:
                rate = share
        rate = weight * rate
        if flow.max_rate is not None and flow.max_rate <= rate:
            rate = flow.max_rate
        if into is None:
            flow.rate = rate
        else:
            into[flow] = rate
        return
    residual: dict[Link, float] = {}
    load: dict[Link, float] = {}
    # Unfrozen-flow count per link.  The "link still contested" test
    # must use this integer, not ``load > 0``: fractional weights
    # (e.g. 0.4) leave float residue when subtracted back out, and a
    # drained link with residual load but no unfrozen flows would be
    # picked as a bottleneck that no iteration can freeze — an
    # infinite loop.
    count: dict[Link, int] = {}
    for flow in ordered:
        for link in flow.path:
            residual.setdefault(link, link.bandwidth)
            load[link] = load.get(link, 0.0) + flow.weight
            count[link] = count.get(link, 0) + 1

    unfrozen = dict.fromkeys(ordered)
    while unfrozen:
        # The next bottleneck is the smallest per-unit-weight share,
        # considering links and per-flow rate caps.
        share = min(residual[link] / load[link]
                    for link in residual if count[link] > 0)
        capped = [f for f in unfrozen
                  if f.max_rate is not None
                  and f.max_rate <= f.weight * share]
        if capped:
            # Freeze capped flows at their own limit first; their unused
            # share is redistributed on the next iteration.
            for flow in capped:
                _freeze(flow, typing.cast(float, flow.max_rate),
                        unfrozen, residual, load, count, into)
            continue
        bottleneck = min((link for link in residual if count[link] > 0),
                         key=lambda link: residual[link] / load[link])
        for flow in [f for f in unfrozen if bottleneck in f.path]:
            _freeze(flow, flow.weight * share, unfrozen, residual,
                    load, count, into)


def _freeze(flow: Flow, rate: float, unfrozen: dict[Flow, None],
            residual: dict[Link, float], load: dict[Link, float],
            count: dict[Link, int],
            into: dict[Flow, float] | None = None) -> None:
    if into is None:
        flow.rate = rate
    else:
        into[flow] = rate
    del unfrozen[flow]
    for link in flow.path:
        residual[link] = max(0.0, residual[link] - rate)
        count[link] -= 1
        load[link] = load[link] - flow.weight if count[link] else 0.0
