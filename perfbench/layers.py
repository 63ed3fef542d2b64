"""Layer boundaries to trace, and the per-layer metrics derived from them.

The layers are the package's modules. :func:`patches` names the calls
that cross into each layer: the functions the benchmark calls, and the
names one module imports from another (the kernel as ``metrics`` sees it,
the chain constructors as ``fp.build_fp_model`` and ``optimize`` see them).
``cli`` has no boundary of its own: its work is argument parsing and a
manifest, and it spends its time in the library calls traced here.

Per-layer times are taken per operation and reported as the median over
the operations named below, across every traced pass. "Self" means a
span's duration minus the time its child spans cover. Counts are either
*computed* from the program's inputs and outputs or *counted* by the
program or the file system; the runner checks that each repeats exactly
for a given seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: name, unit, better, how it is obtained.
PER_LAYER = (
    ("phasetype.expm_action_grid_s", "s", "lower", "time"),
    ("phasetype.unif_mass_k50", "steps", "lower", "computed"),
    ("phasetype.chain_init_s", "s", "lower", "time"),
    ("fp.build_fp_rmc_s", "s", "lower", "time"),
    ("fp.rmc_stationary_s", "s", "lower", "time"),
    ("fp.build_fp_amc_s", "s", "lower", "time"),
    ("fp.with_init_s", "s", "lower", "time"),
    ("fp.amc_order", "count", "lower", "computed"),
    ("fp.amc_nnz", "count", "lower", "computed"),
    ("fp.rmc_order", "count", "lower", "computed"),
    ("metrics.moments_s", "s", "lower", "time"),
    ("metrics.summarize_self_s", "s", "lower", "time"),
    ("optimize.evals", "count", "lower", "counted"),
    ("optimize.eval_s", "s", "lower", "time"),
    ("sim.ecdf_s", "s", "lower", "time"),
    ("sim.ks_s", "s", "lower", "time"),
    ("sim.discards_per_cycle_zw", "ratio", "lower", "counted"),
    ("sim.preemptions_per_cycle_fp", "ratio", "lower", "counted"),
    ("sim.preemptions_per_cycle_po", "ratio", "lower", "counted"),
    ("io.write_s", "s", "lower", "time"),
    ("io.bytes", "bytes", "lower", "counted"),
    ("trace.overhead_s", "s", "lower", "time"),
)


def patches() -> list:
    """(owner, attribute, span name) of every traced call."""
    from aoidual import _io, fp, metrics, optimize, phasetype, sim, zw

    chain = phasetype.AbsorbingChain
    return [
        (chain, "__post_init__", "phasetype.chain_init"),  # validation plus LU
        (chain, "solve_right", "phasetype.solve"),
        (chain, "solve_left", "phasetype.solve"),
        (chain, "with_init", "fp.with_init"),
        (metrics, "expm_action_grid", "phasetype.expm_action_grid"),
        (metrics, "absorption_probability", "phasetype.absorption_probability"),
        (metrics, "summarize", "metrics.summarize"),
        (metrics, "aoi_mean", "metrics.aoi_mean"),
        (metrics, "paoi_mean", "metrics.paoi_mean"),
        (fp, "build_fp_model", "fp.build_fp_model"),
        (fp, "build_fp_rmc", "fp.build_fp_rmc"),
        (fp, "rmc_stationary", "fp.rmc_stationary"),
        (fp, "build_fp_amc", "fp.build_fp_amc"),
        (zw, "build_zw_amc", "zw.build_zw_amc"),
        (optimize, "optimize_freeze", "optimize.optimize_freeze"),
        (optimize, "golden_section_min", "optimize.golden_section_min"),
        (optimize, "build_fp_model", "fp.build_fp_model"),
        (optimize, "aoi_mean", "metrics.aoi_mean"),
        (optimize, "zw_closed_form_means", "zw.zw_closed_form_means"),
        (sim, "simulate", "sim.simulate"),
        (sim, "empirical_aoi_cdf", "sim.empirical_aoi_cdf"),
        (sim, "empirical_paoi_cdf", "sim.empirical_paoi_cdf"),
        (sim, "ks_against_table", "sim.ks_against_table"),
        (_io, "write_csv", "_io.write_csv"),
        (_io, "write_json", "_io.write_json"),
    ]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def derive(records, tracer, counts: dict, big_k: int, overhead_s: float) -> dict:
    """Per-layer metrics from the traced operations' spans and the counts.

    ``records`` are the traced passes' completed operations; a metric
    whose operations the workload does not run is 0.
    """
    self_time = tracer.self_times()
    names = {s.id: s.name for s in tracer.spans}
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)

    def total(rec, *span_names, self_only=False, parent=None):
        return sum(self_time[s.id] if self_only else s.duration
                   for s in by_op[rec.op_id]
                   if s.name in span_names
                   and (parent is None or (s.parent is not None and names[s.parent] == parent)))

    def per_op(select, *span_names, **kw):
        return _median(total(r, *span_names, **kw) for r in records if select(r.op))

    big_table = f"table_k{big_k}"

    def is_big_table(op):
        return op.label == big_table

    # Operations that build and evaluate a chain of the large order.
    def is_big_chain(op):
        return op.kind == "point" or is_big_table(op)

    def is_big_optimize(op):
        return op.kind == "optimize" and op.k == big_k

    out = {
        "phasetype.expm_action_grid_s": per_op(is_big_table, "phasetype.expm_action_grid"),
        "phasetype.chain_init_s": per_op(is_big_chain, "phasetype.chain_init"),
        "fp.build_fp_rmc_s": per_op(is_big_chain, "fp.build_fp_rmc"),
        "fp.rmc_stationary_s": per_op(is_big_chain, "fp.rmc_stationary"),
        "fp.build_fp_amc_s": per_op(is_big_chain, "fp.build_fp_amc", self_only=True),
        "fp.with_init_s": per_op(is_big_chain, "fp.with_init", self_only=True),
        # aoi_mean plus paoi_mean, or the same moment solves inside summarize
        "metrics.moments_s": _median(
            total(r, "metrics.aoi_mean", "metrics.paoi_mean")
            + total(r, "phasetype.solve", parent="metrics.summarize")
            for r in records if is_big_chain(r.op)),
        "metrics.summarize_self_s": per_op(lambda op: op.label == "table_k1",
                                           "metrics.summarize", self_only=True),
        "optimize.eval_s": _median(
            total(r, "optimize.optimize_freeze") / r.counts["optimize.evals"]
            for r in records if is_big_optimize(r.op) and "optimize.evals" in r.counts),
        # the benchmark's own calls, not those inside simulate or the KS test
        "sim.ecdf_s": per_op(lambda op: op.kind == "ks", "sim.empirical_aoi_cdf",
                             "sim.empirical_paoi_cdf", parent="op.ks"),
        "sim.ks_s": per_op(lambda op: op.kind == "ks", "sim.ks_against_table"),
        "io.write_s": per_op(is_big_table, "_io.write_csv", "_io.write_json"),
        "trace.overhead_s": overhead_s,
    }
    for name, _unit, _better, how in PER_LAYER:
        if how != "time":
            out[name] = counts.get(name, 0)
    return {name: out[name] for name, *_ in PER_LAYER}
