"""The production event loop against the non-fused heap reference.

:class:`~repro.simkit.Simulator` triggers timeouts in place (fused
dispatch); :class:`~tests.oracles.sim.HeapSimulator` schedules
``Event.succeed`` for them, the ordering the fused loop must reproduce.
Each seed builds one random program of cooperating processes — timeouts
with and without values, ``timeout_at``, ``call_at`` ties, same-instant
``succeed``/``fail`` of shared events, interrupts, waits on finished
events and on other processes, and timeouts triggered by hand — and
drives it through ``run(until=t)``, ``run(until=event)`` and ``run()``.
Both simulators must produce the identical ``(now, label)`` trace,
errors included.  ``--full-seeds`` sweeps 200 programs.
"""

from __future__ import annotations

import random

from repro.simkit import Event, Interrupt, Simulator
from tests.oracles.sim import HeapSimulator

#: Exact binary fractions, so equal-time ties actually occur.
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5)

OPS = ("timeout", "timeout", "timeout_value", "timeout_at", "call_at",
       "succeed", "fail", "wait", "interrupt", "stale", "child", "manual")


def _program(seed: int) -> dict:
    """A random program: per-process op lists plus the driver's plan."""
    rng = random.Random(seed)
    processes = []
    for _ in range(rng.randint(2, 6)):
        ops = []
        for _ in range(rng.randint(3, 12)):
            op = rng.choice(OPS)
            if op == "manual" and rng.random() < 0.6:
                op = "timeout"  # keep the error path rare
            ops.append((op, rng.choice(DELAYS), rng.randrange(1 << 16)))
        processes.append(ops)
    return {
        "events": rng.randint(1, 4),
        "processes": processes,
        "until_time": rng.choice((0.0, 0.5, 1.0, 2.0, 3.0)),
        # Which event the run(until=event) segment waits on.
        "until_event": rng.choice(("shared", "timeout", "process")),
        "until_event_delay": rng.choice(DELAYS),
        "until_time_after": rng.choice((0.0, 0.25, 1.0, 4.0)),
    }


def _trace(sim_class: type, program: dict) -> list[tuple[float, str]]:
    """Run *program* on a fresh *sim_class* and return its trace."""
    sim = sim_class()
    trace: list[tuple[float, str]] = []

    def log(label: str) -> None:
        trace.append((sim.now, label))

    shared = [sim.event(name=f"e{k}") for k in range(program["events"])]
    procs = []

    def wait(name, target):
        """Yield *target*, logging its value, failure or an interrupt."""
        try:
            value = yield target
        except Interrupt as interrupt:
            log(f"{name} interrupted cause={interrupt.cause}")
            return None
        except ValueError as error:
            log(f"{name} failed {error}")
            return None
        log(f"{name} woke value={value!r}")
        return value

    def child(name, delay):
        yield sim.timeout(delay)
        log(f"{name} child done")
        return f"{name}-result"

    def body(index, ops):
        name = f"p{index}"
        for step, (op, delay, token) in enumerate(ops):
            tag = f"{name}.{step}:{op}"
            log(tag)
            if op == "timeout":
                yield from wait(tag, sim.timeout(delay))
            elif op == "timeout_value":
                yield from wait(tag, sim.timeout(delay, value=token))
            elif op == "timeout_at":
                yield from wait(tag, sim.timeout_at(sim.now + delay,
                                                    value=token % 3 or None))
            elif op == "call_at":
                # Several registrations at one instant: they must run in
                # registration order, interleaved identically with the
                # timeouts landing there.
                for k in range(1 + token % 3):
                    sim.call_at(sim.now + delay,
                                lambda k=k, tag=tag: log(f"{tag} call {k}"))
            elif op in ("succeed", "fail"):
                event = shared[token % len(shared)]
                if not event.triggered:
                    if op == "succeed":
                        event.succeed(tag)
                    else:
                        event.fail(ValueError(tag))
            elif op == "wait":
                event = shared[token % len(shared)]
                yield from wait(tag, event)
            elif op == "interrupt":
                target = procs[token % len(procs)]
                if target.is_alive and target is not procs[index]:
                    target.interrupt(cause=tag)
            elif op == "stale":
                # Wait on a timeout that may already have fired and
                # dispatched by the time it is yielded.
                early = sim.timeout(delay)
                yield from wait(tag + " spacer", sim.timeout(0.5))
                yield from wait(tag, early)
            elif op == "child":
                yield from wait(tag, sim.process(child(tag, delay)))
            elif op == "manual":
                # Triggering a timeout by hand: the queue entry still
                # fires later and must fail as "already triggered".
                timer = sim.timeout(delay)
                timer.succeed(f"{tag} by hand")
                yield from wait(tag, timer)
        log(f"{name} end")
        return name

    for index, ops in enumerate(program["processes"]):
        procs.append(sim.process(body(index, ops), name=f"p{index}"))

    def drive(until) -> None:
        while True:
            try:
                value = sim.run(until=until)
            except RuntimeError as error:
                log(f"error {error}")
                if "already triggered" in str(error):
                    continue  # the entry is consumed; carry on
                return
            except ValueError as error:
                log(f"run raised {error}")
                return
            log(f"run returned {value!r}")
            return

    drive(program["until_time"])
    choice = program["until_event"]
    if choice == "shared":
        target: Event = shared[0]
    elif choice == "timeout":
        target = sim.timeout(program["until_event_delay"], value="stop")
    else:
        target = procs[-1].done
    drive(target)
    drive(sim.now + program["until_time_after"])
    drive(None)
    log("idle")
    return trace


def test_fused_dispatch_matches_heap_reference(event_seed):
    program = _program(0xE0 + event_seed)
    expected = _trace(HeapSimulator, program)
    assert _trace(Simulator, program) == expected
    assert len(expected) > len(program["processes"])


def test_programs_cover_every_feature():
    """The quick seed set must reach every op, error and run mode."""
    labels = " ".join(label for seed in range(30)
                      for _, label in _trace(Simulator, _program(0xE0 + seed)))
    for needle in ("timeout_value", "timeout_at", "call 1", "interrupted",
                   "failed", "already triggered", "child done", "stale",
                   "run returned", "ran out of events"):
        assert needle in labels, needle
