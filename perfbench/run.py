"""hilbfs benchmark: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload surject-full --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of an
outside-in traced run.  End-to-end times are scaled to a nominal host
speed by the reference kernel of ``reference.py``, timed next to each
interval.  The exit code is 1 when an item fails its gate and
2 when the benchmark cannot run at all.
"""

import os
import sys
import time

START = time.perf_counter()
sys.dont_write_bytecode = True  # leave no caches in the checkout
BLAS_THREADS = "1"  # single-threaded baseline; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def import_hilbfs():
    """The package from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hilbfs
    except ImportError as exc:
        print(f"error: cannot import hilbfs from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(hilbfs.__file__).resolve().parent != ROOT / "src" / "hilbfs":
        print(f"error: hilbfs was imported from {hilbfs.__file__}, not from this checkout",
              file=sys.stderr)
        sys.exit(2)
    return hilbfs


def fresh_import_s():
    """Seconds a fresh interpreter takes to start and import hilbfs from src/."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import hilbfs"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", code], check=True)
    return time.perf_counter() - t


def build_ladder(hb, wl, tracer=None):
    from workloads import grid

    models = {}
    for k in wl.ladder:
        if tracer is not None:
            tracer.item, tracer.k = "setup", k
        models[k] = hb.geometry.build_p1_model(k, **grid(k))
        if wl.uses_laplacian:
            models[k].laplacian()
    return models


def tail(times):
    """Highest percentile (nearest rank) with at least ten samples beyond it.

    Below twenty samples every such percentile lies under the median, which
    is no tail: the median is reported then, and the output says so.
    Returns (seconds, percentile, samples beyond it).
    """
    xs = sorted(times)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n // 2
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def run_items(hb, wl, models, items, deadline_s, tracer=None):
    """Time each item between two timings of the reference kernel.

    Returns per item (seconds at the nominal host speed, raw seconds,
    output or exception), and the raw wall time of the loop.
    """
    import reference

    results = []
    t0 = time.perf_counter()
    ref = reference.measure()
    for idx, (k, inp) in enumerate(items):
        if time.perf_counter() - t0 > deadline_s:
            break
        if tracer is not None:
            tracer.item, tracer.k = idx, k
        t = time.perf_counter()
        try:
            out = wl.run(hb, models[k], inp)
        except Exception as exc:  # a failed item is data, not a crash
            out = exc
        dt = time.perf_counter() - t
        ref_after = reference.measure()
        results.append((reference.scale(dt, ref, ref_after), dt, out))
        ref = ref_after
    return results, time.perf_counter() - t0


def gate(hb, wl, models, items, results):
    """Per item: None when it passes its check, else why it failed."""
    reasons = []
    for (k, inp), (_, _, out) in zip(items, results):
        try:
            reason = wl.check(hb, models[k], inp, out)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        reasons.append(None if reason is None else f"k={k}: {reason}")
    return reasons


def per_layer(tracer, wl_ladders, overhead_s):
    from layers import LAYER_METRICS, per_k

    calls, self_s, by_k = tracer.self_times()
    c = tracer.counts
    derived = {
        "pushforward.phi_matrix.calls_per_accepted_step":
            calls["pushforward.phi_matrix"] / c["pushforward.solve_psi.accepted_steps"]
            if c["pushforward.solve_psi.accepted_steps"] else 0.0,
        "moments.build_lambda.paper_ok_ratio":
            c["moments.build_lambda.paper_rows_ok"] / c["moments.build_lambda.paper_rows_tried"]
            if c["moments.build_lambda.paper_rows_tried"] else 0.0,
        "trace.overhead_s": overhead_s,
    }
    rejections = c["pushforward.solve_psi.rejections"]
    metrics = {}
    for name, unit, _, workloads in LAYER_METRICS:
        prefix, _, field = name.rpartition(".")
        if prefix in tracer.missing:
            continue
        if field == "self_s":
            metrics[name] = (self_s[prefix], unit)
            for k in per_k(workloads, wl_ladders):
                metrics[f"{name}.k{k}"] = (by_k[prefix][k], unit)
        elif field == "calls":
            metrics[name] = (calls[prefix], unit)
        elif name in derived:
            metrics[name] = (derived[name], unit)
        elif name in ("pushforward.solve_psi.s_to_reject",
                      "pushforward.solve_psi.phi_calls_to_reject"):
            metrics[name] = (c[name] / rejections if rejections else 0.0, unit)
        else:
            metrics[name] = (c[name], unit)
    return metrics


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    hb = import_hilbfs()
    import_s = time.perf_counter() - START
    import numpy as np

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, hb)
        tracer.active = True

    import reference

    # each set-up interval is scaled by the reference kernel timed around it
    refs = [reference.measure()]
    fresh_s, fresh_scaled, build_s, build_scaled = [], [], [], []
    for _ in range(SETUP_REPEATS):
        fresh_s.append(fresh_import_s())
        refs.append(reference.measure())
        fresh_scaled.append(reference.scale(fresh_s[-1], refs[-2], refs[-1]))
        t = time.perf_counter()
        models = build_ladder(hb, wl, tracer)
        build_s.append(time.perf_counter() - t)
        refs.append(reference.measure())
        build_scaled.append(reference.scale(build_s[-1], refs[-2], refs[-1]))
    setup_s = statistics.median(fresh_scaled) + statistics.median(build_scaled)
    if tracer is not None:
        tracer.active = False

    # a fixed item count per seed and --seconds: counts repeat exactly and the
    # tail percentile sits at the same rank on every run
    rounds = max(1, round(args.seconds / wl.round_s))
    stats = defaultdict(int)
    per_k_inputs = {
        k: wl.generate(hb, models[k], np.random.default_rng([args.seed, k]), rounds * m, stats)
        for k, m in zip(wl.ladder, wl.per_round)
    }
    items = [(k, per_k_inputs[k][r * m + j]) for r in range(rounds)
             for k, m in zip(wl.ladder, wl.per_round) for j in range(m)]
    # per pass: a much slower host or program stops early, so that all runs
    # of the benchmark together stay within their time limit
    deadline_s = 1.2 * args.seconds

    results, wall_s = run_items(hb, wl, models, items, deadline_s)
    reasons = gate(hb, wl, models, items, results)
    failures = [r for r in reasons if r is not None]
    times = [dt for (dt, _, _), r in zip(results, reasons) if r is None]
    attempted = len(results)
    passed = len(times)
    if not times:  # every item failed: report their times rather than none
        times = [dt for dt, _, _ in results]
    p50 = statistics.median(times)
    tail_s, tail_pct, beyond = tail(times)
    items_s = sum(dt for dt, _, _ in results)  # the loop's item time, scaled
    by_k = defaultdict(list)  # a deadline may stop the loop before some sizes
    for (dt, _, _), (k, _) in zip(results, items):
        by_k[k].append(dt)

    info = {
        "workload": wl.name, "seed": args.seed, "ladder": list(wl.ladder),
        "rounds": rounds, "per_round": list(wl.per_round),
        "grid": "radial_nodes=2(2k+4), azimuthal_nodes=2(4k+4)",
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "reference_nominal_s": reference.NOMINAL_S, "setup_reference_s": refs,
        "import_s": import_s, "fresh_import_s": fresh_s, "ladder_build_s": build_s,
        "timed_wall_s": wall_s,
        "raw_item_p50_s": statistics.median(raw for _, raw, _ in results),
        "item_tail": f"p{tail_pct:.0f} of {len(times)} samples, {beyond} beyond",
        "item_p50_s_by_k": {k: statistics.median(ts) for k, ts in by_k.items()},
        "dropped_draws": dict(stats),
        "failed_fraction": (attempted - passed) / max(attempted, 1),
    }
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)

    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "item_p50_s": (p50, "s"),
            "item_tail_s": (tail_s, "s"),
            "items_per_s": (passed / items_s, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print(f"{wl.name} failed_fraction = {info['failed_fraction']:.6g} "
              f"({attempted - passed} of {attempted})")
    else:
        tracer.active = True
        traced, _ = run_items(hb, wl, models, items, deadline_s, tracer)
        tracer.active = False
        tracer.unpatch()
        traced_p50 = statistics.median(dt for dt, _, _ in traced)
        info.update(untraced_item_p50_s=p50, traced_item_p50_s=traced_p50,
                    missing_targets=tracer.missing, spans=len(tracer.spans))
        metrics = per_layer(tracer, {w.name: w.ladder for w in WORKLOADS.values()},
                            traced_p50 - p50)
        tracer.write_spans(ROOT / ".perfbench_spans" / f"{wl.name}-seed{args.seed}.csv")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
