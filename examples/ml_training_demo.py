#!/usr/bin/env python
"""Data-parallel training on the simulated cluster, three ways.

The ``ml_training`` macro-workload (see
:mod:`repro.workloads.ml_training`) models one synchronous SGD job:
per-step model broadcast, bucketed gradient allreduces overlapped with
backward compute, and an optimizer charge.  This demo runs the same
model (same seed, same log-normal layer sizes) under three
configurations through the unified workload API:

- flat collectives, no overlap (the naive baseline);
- flat collectives with compute/communication overlap;
- hierarchical (node-aware) collectives with overlap — the default.

Gradients are integer-valued, so float summation is exact and all three
runs must agree on every checksum — the demo asserts it, then shows
what each optimization bought in virtual wall-clock.

Run: python examples/ml_training_demo.py
"""

import repro.workloads as workloads
from repro.workloads.ml_training import gradient_buckets, model_layers

SEED = 0
SCALE = {"ranks": 16, "processes_per_node": 4}


def main() -> None:
    sizes = model_layers(SEED, layers=12)
    buckets = gradient_buckets(sizes, 32 * 1024)
    print(f"model: {len(sizes)} layers, {sum(sizes)} bytes "
          f"(min {min(sizes)}, max {max(sizes)}), "
          f"{len(buckets)} gradient buckets")

    variants = [
        ("flat, no overlap", {"algorithm": "default", "overlap": False}),
        ("flat, overlapped", {"algorithm": "default", "overlap": True}),
        ("hier, overlapped", {"algorithm": "hier", "overlap": True}),
    ]
    outcomes = []
    for label, overrides in variants:
        outcome = workloads.run("ml_training", seed=SEED,
                                params={**SCALE, **overrides},
                                check=True, instrumentation=True)
        assert outcome.ok, outcome.error
        assert not outcome.violations, outcome.violations
        outcomes.append((label, outcome))
        packets = outcome.metrics.get("chmad.packets", 0)
        print(f"  {label:18s} t={outcome.time_ns/1e6:8.3f} ms  "
              f"packets={packets}")

    # Exact integer gradients: reduction order cannot change a checksum,
    # so every rank of every variant must agree element for element.
    references = [outcome.results for _, outcome in outcomes]
    assert references[0] == references[1] == references[2], \
        "variants disagree on training checksums"
    print("all three variants agree on every per-step checksum")

    baseline = outcomes[0][1].time_ns
    best = outcomes[-1][1].time_ns
    assert best < baseline, "hier+overlap should beat the naive baseline"
    print(f"hier + overlap speedup over naive: {baseline / best:.2f}x "
          f"(virtual time, {SCALE['ranks']} ranks)")


if __name__ == "__main__":
    main()
