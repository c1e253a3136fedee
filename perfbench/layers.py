"""Per-layer metrics from one traced pass.

Self times have the wrappers' calibrated cost taken out (`Tracer.settle`);
what the calibration misses stays with the callers, so the layers' self
times add up to somewhat more than the untraced time of the same queries.

`searchdomain.*` names the SearchDomain calls of whichever domain the
workload uses (`tiles.*` on the tile workloads, `grid.*` on the lattice), so
every metric reads a measured value on every workload. Every `.s` metric is
self time: the call's duration minus the traced calls made inside it.
"""
from __future__ import annotations

HEAP_OPS = ("insert_or_update", "discard", "min_key", "top", "rebuild")

# Self-time buckets that make up a traced pass, by layer.
ACCOUNTING = {
    "tiles": ("tiles.heuristic", "tiles.successors", "tiles.is_goal", "tiles.build"),
    "grid search": ("grid.heuristic", "grid.successors", "grid.is_goal"),
    "grid build": ("grid.build", "grid.clearance_field", "grid.dijkstra_field"),
    "domain": ("domain.intern",),
    "heap": tuple(f"heap.{op}" for op in HEAP_OPS),
    "planner": ("planner.run", "planner.reconcile_queues"),
    "bench": ("bench.build_domain", "query"),
}


def layer_metrics(tracer, untraced_total: float, traced_total: float) -> dict:
    """Name -> (value, unit) for every per-layer metric, after printing the breakdown."""
    tracer.settle()
    layer = "tiles" if tracer.ncalls("tiles.heuristic") else "grid"
    t = tracer
    c = t.counts
    logged = c["planner.expansions.logged"]
    metrics = {
        "searchdomain.heuristic.calls": (t.ncalls(f"{layer}.heuristic"), "count"),
        "searchdomain.heuristic.s": (t.self_s(f"{layer}.heuristic"), "s"),
        "searchdomain.heuristic.states": (c[f"{layer}.heuristic.states"], "count"),
        "searchdomain.successors.calls": (t.ncalls(f"{layer}.successors"), "count"),
        "searchdomain.successors.s": (t.self_s(f"{layer}.successors"), "s"),
        "searchdomain.build.total_s": (t.total_s(f"{layer}.build"), "s"),
        "domain.intern.calls": (t.ncalls("domain.intern"), "count"),
        "grid.clearance_field.calls": (t.ncalls("grid.clearance_field"), "count"),
        "grid.dijkstra_field.calls": (t.ncalls("grid.dijkstra_field"), "count"),
        "grid.fallback_lookups": (c["grid.fallback_lookups"], "count"),
    }
    for op in HEAP_OPS:
        metrics[f"heap.{op}.calls"] = (t.ncalls(f"heap.{op}"), "count")
        metrics[f"heap.{op}.s"] = (t.self_s(f"heap.{op}"), "s")
    metrics["heap.rebuild.entries"] = (c["heap.rebuild.entries"], "count")
    metrics.update({
        "planner.expansions": (c["planner.expansions"], "count"),
        "planner.publishes": (c["planner.publishes"], "count"),
        "planner.reopen_incons": (c["planner.reopen_incons"], "count"),
        "planner.inadmissible_share": (
            c["planner.expansions.inadmissible"] / logged if logged else 0.0, "ratio"),
        "planner.reconcile_queues.calls": (t.ncalls("planner.reconcile_queues"), "count"),
        "planner.reconcile_queues.total_s": (t.total_s("planner.reconcile_queues"), "s"),
        "planner.self_s": (t.self_s("planner.run") + t.self_s("planner.reconcile_queues"), "s"),
        "bench.build_domain.self_s": (t.self_s("bench.build_domain"), "s"),
        "trace.overhead_frac": (traced_total / untraced_total - 1, "ratio"),
    })
    _print_breakdown(t, layer, untraced_total, traced_total)
    return metrics


def _print_breakdown(t, layer: str, untraced_total: float, traced_total: float) -> None:
    print(f"  traced {traced_total:.3f} s, untraced {untraced_total:.3f} s; wrapper cost per call "
          f"calibrated at {t.outside_s * 1e9:.0f} ns outside and {t.inside_s * 1e9:.0f} ns inside")
    print(f"  {'call':<28} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name in sorted(t.calls):
        calls, total, own, _ = t.calls[name]
        if calls:
            print(f"  {name:<28} {calls:>10} {total:>10.4f} {own:>10.4f}")
    for name in (f"{layer}.heuristic.states", "grid.fallback_lookups", "heap.rebuild.entries",
                 "planner.reopen_incons"):
        print(f"  {name:<28} {t.counts[name]:>10}")
    accounted = 0.0
    print(f"  {'layer self time':<28} {'self_s':>10} {'of untraced total_s':>20}")
    for group, names in ACCOUNTING.items():
        own = sum(t.self_s(n) for n in names)
        accounted += own
        if own:
            print(f"  {group:<28} {own:>10.4f} {own / untraced_total:>20.1%}")
    print(f"  {'all layers':<28} {accounted:>10.4f} {accounted / untraced_total:>20.1%}"
          f"  (untraced {untraced_total:.4f} s; the excess is wrapper cost the calibration"
          f" misses, left in the callers)")
