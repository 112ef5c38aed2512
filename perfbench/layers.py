"""cProfile self time and cross-layer calls, aggregated by layer.

A layer is a package of ``src/repro`` (the paper's stack plus the
simulation kernel).  A function belongs to the layer whose module
defines it.  Functions defined outside the repository (built-ins, the
standard library) have no layer of their own: their self time is given
to the layers of their callers, edge by edge, so ``list.append`` called
from the kernel counts as kernel time.  Self time the wrappers of this
benchmark spend, and external time whose caller is external too, land
in ``other``.
"""

from __future__ import annotations

#: (path fragment, layer); the first match wins, so sub-packages come
#: before their parent package.
LAYER_PATHS = (
    ("/repro/sim/", "sim"),
    ("/repro/marcel/", "marcel"),
    ("/repro/mpi/coll/", "coll"),
    ("/repro/mpi/collectives.py", "coll"),
    ("/repro/mpi/adi/", "adi"),
    ("/repro/mpi/devices/", "devices"),
    ("/repro/mpi/", "mpi"),
    ("/repro/madeleine/", "mad"),
    ("/repro/networks/", "networks"),
    ("/repro/faults/", "faults"),
    ("/repro/check/", "check"),
    ("/repro/cluster/", "cluster"),
    ("/perfbench/", "other"),
    ("/repro/", "app"),
    ("/numpy/", "app"),
)

LAYERS = ("sim", "marcel", "mpi", "coll", "adi", "devices", "mad",
          "networks", "faults", "check", "cluster", "app", "other")


def layer_of(filename: str) -> str | None:
    """The layer defining code in ``filename``; None if external."""
    for fragment, layer in LAYER_PATHS:
        if fragment in filename:
            return layer
    return None


def profile_layers(profiler) -> dict[str, dict[str, float]]:
    """``{layer: {"self_frac": share of self time, "calls": calls
    entering the layer from another one}}``.

    Calls are pstats caller edges, so a coroutine resumed by the kernel
    counts as a call from ``sim`` into the coroutine's layer.
    """
    profiler.create_stats()
    stats = profiler.stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total = 0.0
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) \
            in stats.items():
        total += tt
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] += tt
            for caller, edge in callers.items():
                if layer_of(caller[0]) != layer:
                    calls[layer] += edge[0]
            continue
        # External function: its per-caller-edge self time goes to the
        # caller's layer.  The edges need not add up to ``tt`` exactly
        # (top-level frames have no caller), so the rest goes to other.
        given = 0.0
        for caller, edge in callers.items():
            self_s[layer_of(caller[0]) or "other"] += edge[2]
            given += edge[2]
        self_s["other"] += max(tt - given, 0.0)
    total = total or 1.0
    return {layer: {"self_frac": self_s[layer] / total,
                    "calls": calls[layer]} for layer in LAYERS}
