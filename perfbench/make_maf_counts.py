"""Write ``maf_counts.json``, the maf-trace workload's invocation counts.

The maf-trace workload replays per-instance, per-bucket invocation counts,
the shape in which the Azure Functions dataset publishes its trace.  The
counts come from one synthetic MAF trace (``repro.serving.maf``, seed 7,
the seed of the fig15 benchmark) over the fig15 instance mix, and are
checked in so that a change to the synthesizer cannot change the
benchmark's input.  The benchmark seed then only places each invocation
within its bucket.

Run from the repository root::

    python3 perfbench/make_maf_counts.py
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent

DURATION_S = 180.0
BUCKET_S = 10.0
TARGET_RPS = 150.0
STRUCTURE_SEED = 7
FIG15_MIX = (("bert-base", 64), ("roberta-base", 64), ("gpt2", 16))


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.serving import MAFTraceConfig, synthesize_maf_trace

    names = [f"{model}#{k}" for model, count in FIG15_MIX
             for k in range(count)]
    trace = synthesize_maf_trace(names, MAFTraceConfig(
        duration=DURATION_S, target_rps=TARGET_RPS,
        bucket_seconds=BUCKET_S, seed=STRUCTURE_SEED))
    buckets = int(DURATION_S // BUCKET_S)
    counts = {name: [0] * buckets for name in names}
    for time, name in trace.arrivals:
        counts[name][int(time // BUCKET_S)] += 1
    payload = {"bucket_seconds": BUCKET_S, "target_rps": TARGET_RPS,
               "structure_seed": STRUCTURE_SEED, "counts": counts}
    (HERE / "maf_counts.json").write_text(
        json.dumps(payload, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
