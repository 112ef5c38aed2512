#!/usr/bin/env python
"""CFD halo exchange across the protocol switch points.

The ``cfd_halo`` macro-workload (see
:mod:`repro.workloads.cfd_halo`) models a partitioned mesh solver:
per-iteration stencil compute, one jagged halo message per face to each
topological neighbour, and periodic residual allreduces.  Face sizes
are drawn log-uniformly, so a single iteration mixes eager, rendezvous
and — on the InfiniBand fabric — rendezvous-over-RDMA traffic.

This demo runs the same mesh on the periodic 2-D process grid
(``create_cart``/``shift``, the heat2d layering) and on an irregular
graph topology (``create_graph``), on both the SCI and IB fabrics, and
shows which wire protocol carried the halos.  Determinism is asserted
the way every simulator claim is: same seed, same digest.

Run: python examples/cfd_halo_demo.py
"""

import repro.workloads as workloads
from repro.workloads.cfd_halo import face_sizes, halo_graph

SEED = 0
SCALE = {"ranks": 16, "processes_per_node": 4}


def main() -> None:
    adjacency = halo_graph(SEED, SCALE["ranks"])
    edges = [(a, b) for a, nbrs in adjacency.items() for b in nbrs]
    sizes = face_sizes(SEED, edges, 512, 98_304)
    small = sum(1 for s in sizes.values() if s < 8192)
    big = sum(1 for s in sizes.values() if s > 16384)
    print(f"graph mesh: {len(sizes)} directed faces "
          f"({small} eager-sized <8KiB, {big} RDMA-sized >16KiB)")

    for topology in ("cart", "graph"):
        for network in ("sisci", "ib"):
            outcome = workloads.run(
                "cfd_halo", seed=SEED,
                params={**SCALE, "topology": topology, "network": network},
                check=True, instrumentation=True)
            assert outcome.ok, outcome.error
            assert not outcome.violations, outcome.violations
            rdma = outcome.metrics.get("rdma.writes", 0)
            print(f"  {topology:5s} on {network:5s}: "
                  f"t={outcome.time_ns/1e6:7.3f} ms  "
                  f"bytes={outcome.metrics['mad.bytes']:>9}  "
                  f"rdma.writes={rdma}")
            if network == "ib":
                assert rdma > 0, "big faces on IB must take the RDMA path"
            else:
                assert rdma == 0

    # Same seed, same digest — on a fixed topology/fabric the halo
    # exchange is a pure function of the configuration.
    first = workloads.run("cfd_halo", seed=3, params=SCALE)
    again = workloads.run("cfd_halo", seed=3, params=SCALE)
    assert first.ok and again.ok, first.error or again.error
    assert first.digest == again.digest
    print(f"deterministic: seed 3 reproduces digest {first.digest[:16]}…")


if __name__ == "__main__":
    main()
