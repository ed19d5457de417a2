"""Outside-in tracing of hilbfs: wrap public functions where they are imported.

Nothing inside the package is edited.  Each wrapped function is replaced,
in every hilbfs module that holds a reference to it, by a wrapper that
records a span (name, start, end, parent span, item id, k) while the tracer
is active, and calls straight through while it is paused.  Spans stay in
memory; ``write_spans`` dumps them once the run ends.
"""

from __future__ import annotations

import csv
import functools
import re
import time
import weakref
from collections import defaultdict


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, item id, k, end index]
        self.spans = []
        self.stack = []
        self.active = False
        self.item = None
        self.k = None
        self.counts = defaultdict(float)
        self.missing = []
        self._restore = []
        self._filled = {}  # id(model) -> weakref; models are unhashable dataclasses

    def wrap(self, name, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.item, tracer.k, 0]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(span)
                if on_error is not None:
                    on_error(tracer, idx, args, kwargs, exc)
                raise
            tracer._close(span)
            if on_result is not None:
                on_result(tracer, idx, args, kwargs, result)
            return result

        return wrapper

    def _close(self, span):
        span[2] = time.perf_counter()
        span[6] = len(self.spans)
        self.stack.pop()

    def patch_function(self, hb, home, attr, **hooks):
        """Wrap ``hilbfs.<home>.<attr>`` at every hilbfs import site."""
        orig = getattr(getattr(hb, home), attr, None)
        if not callable(orig):
            self.missing.append(f"{home}.{attr}")
            return
        wrapper = self.wrap(f"{home}.{attr}", orig, **hooks)
        for mod in _hilbfs_modules(hb):
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, orig))

    def patch_method(self, cls, metric_name, attr, **hooks):
        orig = cls.__dict__.get(attr)
        if not callable(orig):
            self.missing.append(metric_name)
            return
        setattr(cls, attr, self.wrap(metric_name, orig, **hooks))
        self._restore.append((cls, attr, orig))

    def unpatch(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def descendants(self, idx, name):
        end = self.spans[idx][6]
        return sum(1 for s in self.spans[idx + 1:end] if s[0] == name)

    def self_times(self):
        """Per span name: (calls, self seconds, self seconds by k)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls = defaultdict(int)
        total = defaultdict(float)
        by_k = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            own = (s[2] - s[1]) - child[i]
            calls[s[0]] += 1
            total[s[0]] += own
            by_k[s[0]][s[5]] += own
        return calls, total, by_k

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "item", "k"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[0], repr(s[1]), repr(s[2]), s[3], s[4], s[5]])


def _hilbfs_modules(hb):
    mods = [hb]
    for name in ("linalg", "geometry", "maps", "pushforward", "moments", "calabi",
                 "injectivity", "cli"):
        mod = getattr(hb, name, None)
        if mod is not None:
            mods.append(mod)
    return mods


# --- counters read from returned objects ---------------------------------

def _laplacian_fill(tr, idx, args, kwargs, result):
    # the first call on a model fills its cache; later calls return it
    model = args[0]
    ref = tr._filled.get(id(model))
    if ref is None or ref() is not model:
        tr._filled[id(model)] = weakref.ref(model)
        tr.counts["geometry.laplacian.bytes_computed"] += 8.0 * model.Q * model.Q


def _t_iterate(tr, idx, args, kwargs, result):
    tr.counts["maps.t_iterate.iterations"] += len(result.steps) - 1


def _solve_psi_ok(tr, idx, args, kwargs, result):
    tr.counts["pushforward.solve_psi.accepted_steps"] += len(result[1].rows) - 1


def _solve_psi_err(tr, idx, args, kwargs, exc):
    trace = getattr(exc, "trace", None)
    if trace is None:
        return
    # rows: the t=0 seed, the accepted steps, then the failed step
    tr.counts["pushforward.solve_psi.accepted_steps"] += len(trace.rows) - 2
    span = tr.spans[idx]
    tr.counts["pushforward.solve_psi.rejections"] += 1
    tr.counts["pushforward.solve_psi.s_to_reject"] += span[2] - span[1]
    tr.counts["pushforward.solve_psi.phi_calls_to_reject"] += tr.descendants(
        idx, "pushforward.phi_matrix"
    )


def _solve_ma(tr, idx, args, kwargs, result):
    q = args[0].model.Q
    tr.counts["calabi.solve_ma.newton_iters"] += result.newton_iters
    tr.counts["calabi.solve_ma.flops_computed"] += result.newton_iters * 2.0 * q**3 / 3.0


def _surject_fixed(tr, idx, args, kwargs, result):
    model = args[0]
    report = result[1]
    iters = next(s["newton_iters"] for s in report.stage_logs
                 if s["stage"] == "full-gram-moment")
    tr.counts["calabi.surject_fixed_volume.newton_iters"] += iters
    # the last residual evaluation returns before the pair-product table is built
    tr.counts["calabi.surject_fixed_volume.table_bytes_computed"] += (
        (iters - 1) * 8.0 * model.N**2 * model.Q
    )


_ROW = re.compile(r"row (\d+)")


def _verify_injectivity(tr, idx, args, kwargs, result):
    status = result.lambda_paper_status
    if status == "achieved":
        ok, tried = result.N, result.N
    else:
        # the paper-mode rows before the failing one succeeded
        match = _ROW.search(status)
        failed_row = int(match.group(1)) if match else 0
        ok, tried = failed_row, failed_row + 1
    tr.counts["moments.build_lambda.paper_rows_ok"] += ok
    tr.counts["moments.build_lambda.paper_rows_tried"] += tried


def install(tracer, hb):
    """Wrap the public functions each per-layer metric is read from."""
    f = tracer.patch_function
    f(hb, "geometry", "build_p1_model")
    tracer.patch_method(hb.geometry.ManifoldModel, "geometry.laplacian", "laplacian",
                        on_result=_laplacian_fill)
    tracer.patch_method(hb.geometry.MetricWeight, "geometry.potential", "potential")
    f(hb, "geometry", "curvature_volume")
    f(hb, "linalg", "cholesky_lower")
    f(hb, "linalg", "orthonormalize_sections")
    f(hb, "maps", "hilb")
    f(hb, "maps", "hilb_nu")
    f(hb, "maps", "t_iterate", on_result=_t_iterate)
    f(hb, "pushforward", "phi_matrix")
    f(hb, "pushforward", "solve_psi", on_result=_solve_psi_ok, on_error=_solve_psi_err)
    f(hb, "calabi", "surject_full")
    f(hb, "calabi", "solve_ma", on_result=_solve_ma)
    f(hb, "calabi", "surject_fixed_volume", on_result=_surject_fixed)
    f(hb, "moments", "build_lambda")
    f(hb, "moments", "solve_moments")
    f(hb, "injectivity", "compare_fs")
    f(hb, "injectivity", "verify_injectivity", on_result=_verify_injectivity)
