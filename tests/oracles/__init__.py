"""Reference implementations that the differential tests compare against.

Each oracle is the straightforward form of a mechanism whose production
version in ``src/repro`` is optimised: the non-fused heap event loop
(:mod:`tests.oracles.sim`), dict-bookkeeping progressive filling and the
from-scratch per-component refill (:mod:`tests.oracles.links`), and
Algorithm 1 recomputing the full timeline per layer
(:mod:`tests.oracles.planner`).  They are specifications, not code
paths: nothing in ``src/`` imports them.
"""
