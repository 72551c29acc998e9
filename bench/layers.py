"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package modules graphs, graph6, counting, coloring, solver,
harness and cli (formulas and rng are too small to measure). Each span name
is ``<layer>.<role>``; a function is wrapped at the binding its callers use:
``exfree.cli.count_pattern``, ``exfree.solver.exists_clique_in_mask`` and
so on. The cli reaches harness through ``exfree.cli.harness``, which the
traced run replaces with a proxy, so harness's own calls (replay re-running
a scan) stay inside the harness span.

Two exceptions to wrapping only other modules' bindings: the solver phase
functions peel, max_partite, reinsert and rebuild are also wrapped at the
solver module's own binding, because rebuild calls them there and the phase
split is visible nowhere else (none of them recurses through it); and
``Graph.__post_init__`` is wrapped on the class, which is how every
constructor reaches it.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

from tracer import CALLS, EXTRA, HITS, SELF, TOTAL, Tracer

REGIONS = ("harness.scan", "harness.replay")


def _nodes(args, res) -> int:
    return res.stats.nodes


def _optima(args, res) -> int:
    return len(res[1])


def _peel_steps(args, res) -> int:
    return len(res[1].steps)


def _color_nodes(args, res) -> int:
    return res.nodes


def _is_true(res) -> bool:
    return res is True


def _record_bytes(args, res) -> int:
    return len(args[1].to_json_line()) + 1


def _file_bytes(args, res) -> int:
    return os.path.getsize(args[0])


# span name -> ((module, attribute) bindings, hit, extra)
BINDINGS = {
    "graph6.decode": ([("cli", "from_graph6"), ("harness", "from_graph6")], None, None),
    "graph6.encode": ([("cli", "to_graph6"), ("harness", "to_graph6")], None, None),
    "graphs.generate": ([("cli", "generate")], None, None),
    "graphs.remove_vertex": ([("solver", "remove_vertex"), ("counting", "remove_vertex")], None, None),
    "counting.count": ([("cli", "count_pattern"), ("harness", "count_pattern"),
                        ("solver", "count_pattern"), ("solver", "count_pattern_masks"),
                        ("solver", "cliques_in_mask")], None, None),
    "counting.clique_test": ([("solver", "exists_clique_in_mask")], _is_true, None),
    "counting.embed_test": ([("solver", "exists_injective_hom"), ("solver", "contains"),
                             ("cli", "contains"), ("harness", "contains")], _is_true, None),
    "counting.through_vertex": ([("solver", "copies_through_vertex")], None, None),
    "coloring.colorable": ([("cli", "is_k_colorable"), ("harness", "is_k_colorable")],
                           None, _color_nodes),
    "coloring.chromatic": ([("cli", "chromatic_number"), ("harness", "chromatic_number"),
                            ("solver", "chromatic_number")], None, None),
    "solver.solve": ([("cli", "max_hfree_subgraph"), ("harness", "max_hfree_subgraph")],
                     None, _nodes),
    "solver.ties": ([("cli", "enumerate_optima"), ("harness", "enumerate_optima")], None, _optima),
    "solver.partite": ([("cli", "max_partite"), ("harness", "max_partite"),
                        ("solver", "max_partite")], None, None),
    "solver.peel": ([("cli", "peel"), ("solver", "peel")], None, _peel_steps),
    "solver.reinsert": ([("solver", "reinsert")], None, None),
    "solver.rebuild": ([("cli", "rebuild"), ("harness", "rebuild"), ("solver", "rebuild")],
                       None, None),
}

# harness functions the cli calls through its `harness` module binding
HARNESS = {
    "threshold_scan": "harness.scan",
    "replay": "harness.replay",
    "verify_near_colorable": "harness.verify",
    "append_record": "harness.records",
    "load_records": "harness.records",
}


class _HarnessProxy:
    """Stands in for exfree.harness as seen from exfree.cli."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install():
    """Wrap every binding; returns (tracer, restore, side counters)."""
    import exfree
    from exfree import cli, counting, harness, solver

    modules = {"cli": cli, "counting": counting, "harness": harness, "solver": solver}
    tracer = Tracer(regions=REGIONS)
    side = {"scan_trials": 0, "scan_unique": 0}
    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    for name, (bindings, hit, extra) in BINDINGS.items():
        for mod, attr in bindings:
            original = getattr(modules[mod], attr)
            patch(modules[mod], attr, tracer.wrap(name, original, hit, extra))
    patch(exfree.Graph, "__post_init__",
          tracer.wrap("graphs.graph_init", exfree.Graph.__post_init__))

    def scan_extra(args, record):
        trials = [t["graph6"] for f in record.results["fractions"] for t in f["trials"]]
        side["scan_trials"] += len(trials)
        side["scan_unique"] += len(set(trials))
        return 0

    extras = {"threshold_scan": scan_extra, "append_record": _record_bytes,
              "load_records": _file_bytes}
    wrapped = {
        attr: tracer.wrap(name, getattr(harness, attr), None, extras.get(attr))
        for attr, name in HARNESS.items()
    }
    patch(cli, "harness", _HarnessProxy(harness, wrapped))

    def restore():
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
        saved.clear()

    return tracer, restore, side


def metrics(tracer: Tracer, side, plain, traced) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics: name -> (value, unit, samples = spans aggregated)."""
    tot = tracer.totals()

    def agg(name):
        return tot.get(name, [0, 0.0, 0.0, 0, 0])

    out: dict[str, tuple[float, str, int]] = {}

    def put(name, value, unit, samples):
        out[name] = (value, unit, samples)

    nodes = agg("solver.solve")[EXTRA]
    put("solver.nodes", nodes, "count", agg("solver.solve")[CALLS])
    put("solver.nodes_per_s", nodes / plain.wall_s if plain.wall_s else 0.0, "1/s", 1)
    for name in ("solver.solve", "counting.count", "counting.clique_test", "counting.embed_test",
                 "solver.ties", "coloring.colorable", "coloring.chromatic", "graph6.decode",
                 "graphs.graph_init", "graph6.encode", "counting.through_vertex",
                 "graphs.remove_vertex"):
        a = agg(name)
        put(f"{name}.calls", a[CALLS], "count", a[CALLS])
        put(f"{name}.self_s", a[SELF], "s", a[CALLS])
    for name in ("counting.clique_test", "counting.embed_test"):
        a = agg(name)
        put(f"{name}.hit_ratio", a[HITS] / a[CALLS] if a[CALLS] else 0.0, "ratio", a[CALLS])
    put("solver.ties.optima", agg("solver.ties")[EXTRA], "count", agg("solver.ties")[CALLS])
    put("coloring.colorable.nodes", agg("coloring.colorable")[EXTRA], "count",
        agg("coloring.colorable")[CALLS])
    for name in ("harness.scan", "harness.replay", "harness.verify", "graphs.generate",
                 "solver.peel", "solver.partite", "solver.reinsert", "solver.rebuild"):
        put(f"{name}.self_s", agg(name)[SELF], "s", agg(name)[CALLS])
    put("solver.peel.steps", agg("solver.peel")[EXTRA], "count", agg("solver.peel")[CALLS])
    rec = agg("harness.records")
    put("harness.records.bytes", rec[EXTRA], "bytes", rec[CALLS])
    put("harness.records.io_s", rec[TOTAL], "s", rec[CALLS])
    trials = side["scan_trials"]
    put("harness.unique_ratio", side["scan_unique"] / trials if trials else 0.0, "ratio", trials)
    # CPU time of solver and coloring work inside scans and replays over their
    # wall: about 1 when the interpreter lock serialises the worker threads
    busy = sum(t for region in REGIONS
               for child, t in tracer.region_child_s.get(region, {}).items()
               if child.startswith(("solver.", "coloring.")))
    wall = sum(tracer.region_wall_s.get(region, 0.0) for region in REGIONS)
    put("harness.parallel.overlap", busy / wall if wall else 0.0, "ratio",
        sum(agg(r)[CALLS] for r in REGIONS))
    cli = agg("cli")
    put("cli.self_s", cli[SELF], "s", cli[CALLS])
    put("cli.stdout_bytes", sum(len(r.stdout.encode()) for r in traced.results), "bytes",
        len(traced.results))
    put("trace.overhead_s", traced.wall_s - plain.wall_s, "s", 1)
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Write the kept spans (ops, layer entries, worker roots) as JSON."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump([asdict(s) for s in tracer.spans], fh)
