"""Per-layer metrics of the traced run and the end-to-end metric each should move.

Each row: metric name, unit, the end-to-end metrics it should move, and the
workloads on which it should move them.  Every ``self_s`` metric is also
reported per k (suffix ``.k<K>``) for the k ladders of those workloads, so
that its scaling in N and Q shows.  Values are summed over the traced run:
the set-up repeats and one traced pass over the items.
"""

ALL = ("surject-full", "surject-reject", "balance-audit", "surject-fixed")

LAYER_METRICS = [
    ("geometry.build_p1_model.self_s", "s", "setup_s; item_p50_s", ALL),
    ("geometry.laplacian.self_s", "s", "setup_s, peak_rss_mb", ("surject-full",)),
    ("geometry.laplacian.bytes_computed", "bytes", "setup_s, peak_rss_mb",
     ("surject-full",)),
    ("geometry.potential.calls", "count", "item_p50_s", ("balance-audit",)),
    ("geometry.potential.self_s", "s", "item_p50_s", ("balance-audit",)),
    ("geometry.curvature_volume.calls", "count", "item_p50_s",
     ("balance-audit", "surject-full")),
    ("geometry.curvature_volume.self_s", "s", "item_p50_s",
     ("balance-audit", "surject-full")),
    ("linalg.cholesky_lower.calls", "count", "item_p50_s",
     ("balance-audit", "surject-fixed")),
    ("linalg.cholesky_lower.self_s", "s", "item_p50_s", ("balance-audit", "surject-fixed")),
    ("linalg.orthonormalize_sections.self_s", "s", "item_p50_s", ("balance-audit",)),
    ("maps.hilb.self_s", "s", "item_p50_s", ("balance-audit",)),
    ("maps.hilb_nu.self_s", "s", "item_p50_s", ("surject-fixed",)),
    ("maps.t_iterate.iterations", "count", "item_p50_s", ("balance-audit",)),
    ("pushforward.phi_matrix.calls", "count", "item_p50_s, items_per_s",
     ("surject-full", "surject-reject")),
    ("pushforward.phi_matrix.self_s", "s", "item_p50_s, items_per_s",
     ("surject-full", "surject-reject")),
    ("pushforward.solve_psi.self_s", "s", "item_p50_s", ("surject-full", "surject-reject")),
    ("pushforward.solve_psi.accepted_steps", "count", "item_p50_s", ("surject-full",)),
    ("pushforward.phi_matrix.calls_per_accepted_step", "ratio", "item_p50_s",
     ("surject-full",)),
    ("pushforward.solve_psi.s_to_reject", "s", "item_p50_s, item_tail_s",
     ("surject-reject",)),
    ("pushforward.solve_psi.phi_calls_to_reject", "count", "item_p50_s, item_tail_s",
     ("surject-reject",)),
    ("calabi.surject_full.self_s", "s", "item_p50_s", ("surject-full",)),
    ("calabi.solve_ma.self_s", "s", "item_p50_s, peak_rss_mb", ("surject-full",)),
    ("calabi.solve_ma.newton_iters", "count", "item_p50_s", ("surject-full",)),
    ("calabi.solve_ma.flops_computed", "flop", "item_p50_s", ("surject-full",)),
    ("calabi.surject_fixed_volume.self_s", "s", "item_p50_s, item_tail_s",
     ("surject-fixed",)),
    ("calabi.surject_fixed_volume.newton_iters", "count", "item_p50_s, item_tail_s",
     ("surject-fixed",)),
    ("calabi.surject_fixed_volume.table_bytes_computed", "bytes", "item_p50_s, item_tail_s",
     ("surject-fixed",)),
    ("moments.build_lambda.self_s", "s", "item_p50_s", ("balance-audit",)),
    ("moments.solve_moments.calls", "count", "item_p50_s", ("balance-audit",)),
    ("moments.build_lambda.paper_ok_ratio", "ratio", "item_p50_s", ("balance-audit",)),
    ("injectivity.compare_fs.self_s", "s", "item_p50_s", ("balance-audit",)),
    ("injectivity.verify_injectivity.self_s", "s", "item_p50_s", ("balance-audit",)),
    ("trace.overhead_s", "s", "none: traced minus untraced item_p50_s", ALL),
]


def per_k(workloads, ladders):
    return sorted({k for w in workloads for k in ladders[w]})


def names(ladders):
    """Every per-layer metric name with its unit, as BENCHMARK.json lists them."""
    out = []
    for name, unit, _, workloads in LAYER_METRICS:
        out.append((name, unit))
        if name.endswith(".self_s"):
            out += [(f"{name}.k{k}", unit) for k in per_k(workloads, ladders)]
    return out
