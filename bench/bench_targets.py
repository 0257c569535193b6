"""What the traced run wraps, and the per-layer metrics it reports.

Layers are wrkit's modules.  Span names are ``<module>`` or
``<module>.<part>``; each metric below is read from those spans or from
the work counters the wrappers add.  Internal helpers (``permute_code``,
``_iter_valid_colourings``, polynomial methods) are not wrapped: they run
millions of times, and their time is charged to the calling span.
"""

from __future__ import annotations

from statistics import median

from bench_trace import Target

BUILDERS = (
    "make_complete",
    "make_complete_bipartite",
    "make_cycle",
    "make_petersen",
    "make_prism",
    "make_random_regular",
    "disjoint_union",
    "from_edges",
)


def _n(args) -> str:
    return f"n={args[0].n}"


def _d_of_config(args) -> str:
    return f"d={args[0].d}"


def _d_first(args) -> str:
    return f"d={args[0]}"


def _subsets(key: str):
    def work(rec, args, kwargs, result, missed):
        if missed:
            rec.add(key, 1 << args[0].n)

    return work


def _checks(rec, args, kwargs, result, missed):
    rec.add("extremal.checks", len(result) if isinstance(result, list) else 1)


def _classes(rec, args, kwargs, result, missed):
    if missed:
        rec.add("configurations.classes", len(result))


def _colourings(rec, args, kwargs, result, missed):
    if missed:
        rec.add(
            "configurations.stats.colourings",
            result.p0.eval(1) + result.p1.eval(1) + result.p2.eval(1),
        )


def _columns(rec, args, kwargs, result, missed):
    rec.add("lp.columns", len(result.configs))
    rec.add("lp.distinct_columns", len(set(zip(result.objective, result.balance))))


def _pairs(rec, args, kwargs, result, missed):
    balance = args[0].balance
    rec.add(
        "lp.vertex_enum.pairs",
        sum(1 for b in balance if b > 0) * sum(1 for b in balance if b < 0),
    )


def _constraints(rec, args, kwargs, result, missed):
    rec.add("lp.dual_feasibility.constraints", len(result.rows))


def _simplex_columns(rec, args, kwargs, result, missed):
    rec.add("simplex.columns", len(args[0]))


def _steps(rec, args, kwargs, result, missed):
    # estimate_occupancy(graph, lam, burn_in, samples, thinning=1, ...)
    named = dict(zip(("graph", "lam", "burn_in", "samples", "thinning"), args), **kwargs)
    rec.add("dynamics.steps", named["burn_in"] + named["samples"] * named.get("thinning", 1))


def targets() -> list[Target]:
    w = "wrkit."
    out = [
        Target(w + "graphs", "canonical_labelled_form", "graphs.canonical_form"),
        Target(w + "graphs", "graphs_up_to_iso", "graphs.iso_classes", size=_d_first),
    ]
    out += [Target(w + "graphs", name, "graphs.build") for name in BUILDERS]
    out += [
        Target(w + "partition", "wr_partition", "partition.uni",
               _subsets("partition.uni.subsets"), _n),
        Target(w + "partition", "wr_partition_bivariate", "partition.biv",
               _subsets("partition.biv.subsets"), _n),
    ]
    out += [
        Target(w + "occupancy", name, "occupancy")
        for name in (
            "occupancy_fraction",
            "occupancy_by_colour",
            "weighted_occupancy",
            "weighted_occupancy_K",
            "alpha_K",
        )
    ]
    out += [
        Target(w + "extremal", name, "extremal", _checks)
        for name in ("verify_occupancy_bound", "verify_partition_bound",
                     "verify_hom_bound", "conjecture_scan")
    ]
    out += [
        Target(w + "extremal", name, "extremal")
        for name in ("findings_csv", "bound_reports_csv")
    ]
    out += [
        Target(w + "configurations", "enumerate_configs", "configurations.enumerate",
               _classes, _d_first),
        Target(w + "configurations", "local_partition_functions", "configurations.stats",
               _colourings, _d_of_config),
        Target(w + "configurations", "alpha_v", "configurations.alpha"),
        Target(w + "configurations", "alpha_u", "configurations.alpha"),
        Target(w + "configurations", "complete_neighbourhood_config", "configurations"),
    ]
    out += [
        Target(w + "lp", "build_primal", "lp.build", _columns, _d_first),
        Target(w + "lp", "vertex_enumeration_solve", "lp.vertex_enum", _pairs,
               lambda args: f"d={args[0].d}"),
        Target(w + "lp", "verify_dual_feasibility", "lp.dual_feasibility", _constraints,
               lambda args: f"d={args[1]}"),
        Target(w + "lp", "uniqueness_check", "lp.uniqueness", size=_d_first),
        Target(w + "lp", "simplex_solve", "lp", size=lambda args: f"d={args[0].d}"),
        Target(w + "lp", "dual_certificate", "lp"),
        Target(w + "simplex", "solve", "simplex.solve", _simplex_columns,
               lambda args: f"cols={len(args[0])}"),
        Target(w + "dynamics", "estimate_occupancy", "dynamics", _steps, _n),
        Target(w + "numerics", "format_rational", "numerics.format"),
        Target(w + "numerics", "parse_rational", "numerics.format"),
        Target(w + "numerics", "binomial_power", "numerics"),
        Target(w + "cli", "main", "cli"),
        Target(w + "cli", "parse_builtin", "cli"),
    ]
    return out


# the work counter and ratio shown beside each span in the traced summary
WORK = {
    "partition.uni": ("partition.uni.subsets", "partition.uni.hit_ratio"),
    "partition.biv": ("partition.biv.subsets", "partition.biv.hit_ratio"),
    "configurations.stats": ("configurations.stats.colourings",
                             "configurations.stats.hit_ratio"),
    "configurations.enumerate": ("configurations.classes", None),
    "lp.build": ("lp.columns", "lp.distinct_ratio"),
    "lp.vertex_enum": ("lp.vertex_enum.pairs", None),
    "lp.dual_feasibility": ("lp.dual_feasibility.constraints", None),
    "simplex.solve": ("simplex.columns", None),
    "dynamics": ("dynamics.steps", "dynamics.steps_per_s"),
    "extremal": ("extremal.checks", None),
}


LAYERS = ("graphs", "partition", "occupancy", "extremal", "configurations",
          "lp", "simplex", "dynamics", "numerics", "cli")


def layer_metrics(per_pass: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each the median over traced passes.

    ``per_pass`` holds one dict per traced pass mapping
    ``<span>.self_s`` / ``<span>.calls`` / counter names to values.
    """

    def get(key: str) -> float:
        return median(p.get(key, 0) for p in per_pass)

    def ratio(part: str, whole: str) -> float:
        values = [p.get(part, 0) / p[whole] if p.get(whole) else 0.0 for p in per_pass]
        return median(values)

    def hit_ratio(span: str) -> float:
        values = [
            1 - p.get(f"{span}.misses", 0) / p[f"{span}.calls"]
            if p.get(f"{span}.calls") else 0.0
            for p in per_pass
        ]
        return median(values)

    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (value, unit)

    put("graphs.canonical_form.calls", get("graphs.canonical_form.calls"), "count")
    put("graphs.canonical_form.self_s", get("graphs.canonical_form.self_s"), "s")
    put("graphs.iso_classes.self_s", get("graphs.iso_classes.self_s"), "s")
    put("graphs.build.self_s", get("graphs.build.self_s"), "s")
    for part in ("uni", "biv"):
        span = f"partition.{part}"
        put(f"{span}.calls", get(f"{span}.calls"), "count")
        put(f"{span}.hit_ratio", hit_ratio(span), "ratio")
        put(f"{span}.self_s", get(f"{span}.self_s"), "s")
        put(f"{span}.subsets", get(f"{span}.subsets"), "count")
    put("occupancy.calls", get("occupancy.calls"), "count")
    put("occupancy.self_s", get("occupancy.self_s"), "s")
    put("extremal.checks", get("extremal.checks"), "count")
    put("extremal.self_s", get("extremal.self_s"), "s")
    put("configurations.classes", get("configurations.classes"), "count")
    put("configurations.enumerate.self_s", get("configurations.enumerate.self_s"), "s")
    put("configurations.stats.calls", get("configurations.stats.calls"), "count")
    put("configurations.stats.hit_ratio", hit_ratio("configurations.stats"), "ratio")
    put("configurations.stats.self_s", get("configurations.stats.self_s"), "s")
    put("configurations.stats.colourings", get("configurations.stats.colourings"), "count")
    put("configurations.alpha.calls", get("configurations.alpha.calls"), "count")
    put("configurations.alpha.self_s", get("configurations.alpha.self_s"), "s")
    put("lp.build.self_s", get("lp.build.self_s"), "s")
    put("lp.columns", get("lp.columns"), "count")
    put("lp.distinct_columns", get("lp.distinct_columns"), "count")
    put("lp.distinct_ratio", ratio("lp.distinct_columns", "lp.columns"), "ratio")
    put("lp.vertex_enum.self_s", get("lp.vertex_enum.self_s"), "s")
    put("lp.vertex_enum.pairs", get("lp.vertex_enum.pairs"), "count")
    put("lp.dual_feasibility.self_s", get("lp.dual_feasibility.self_s"), "s")
    put("lp.dual_feasibility.constraints", get("lp.dual_feasibility.constraints"), "count")
    put("lp.uniqueness.self_s", get("lp.uniqueness.self_s"), "s")
    put("simplex.solve.calls", get("simplex.solve.calls"), "count")
    put("simplex.solve.self_s", get("simplex.solve.self_s"), "s")
    put("simplex.columns", get("simplex.columns"), "count")
    put("dynamics.steps", get("dynamics.steps"), "count")
    put("dynamics.self_s", get("dynamics.self_s"), "s")
    put("dynamics.steps_per_s", ratio("dynamics.steps", "dynamics.self_s"), "1/s")
    put("numerics.format.calls", get("numerics.format.calls"), "count")
    put("numerics.format.self_s", get("numerics.format.self_s"), "s")
    put("cli.self_s", get("cli.self_s"), "s")
    for layer in LAYERS:
        put(f"{layer}.raised", get(f"{layer}.raised"), "count")
    return m
