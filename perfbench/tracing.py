"""Spans and counts recorded from the benchmark's own files.

Wrappers are installed on the names the callers look up (a module global
or a class attribute), so no file of the package changes. Spans live in
memory as (name, start, end, parent, row) and are written out at the end.
"""

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, row id]
        self.counts = Counter()
        self.row = None
        self.rows = []  # one record per compute_row call
        self.missing = []  # targets that were not found, so not instrumented
        self._open = []

    def wrap(self, fn, name, before=None):
        """`fn` timed as span `name`; `before(*args, **kwargs)` runs first."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            record = [name, perf_counter(), None, self._open[-1] if self._open else None, self.row]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()

        return wrapper


def summarize(spans):
    """Per span name: calls, total time and self time.

    Total time counts only the outermost span of a name, so a name nested
    in itself is not counted twice. Self time is a span's duration minus
    the part its direct children cover; children of one span run one after
    another, so that part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - covered[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            entry["s"] += end - start
    return dict(out)


def _patch(stack, tracer, owner, attr, make):
    """Replace owner.attr by make(original) until `stack` closes."""
    original = getattr(owner, attr, None)
    if original is None:
        tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    setattr(owner, attr, make(original))
    stack.callback(setattr, owner, attr, original)


def install_row_timer(stack, tracer, cli):
    """Time every `compute_row` call that `run_sweep` makes, and keep its row."""

    def make(compute_row):
        wrapped = tracer.wrap(compute_row, "cli.compute_row")

        def timed(config_dict, kind, snr_db):
            tracer.row = len(tracer.rows)
            started = perf_counter()
            row = wrapped(config_dict, kind, snr_db)
            tracer.rows.append(
                {
                    "kind": kind,
                    "antennas": config_dict["antennas"],
                    "snr_db": float(snr_db),
                    "master_seed": config_dict["master_seed"],
                    "failed": row["kind"] == "failed",
                    "error": row.get("error"),
                    "value_bits": row["value_bits"],
                    "std_error_bits": row["std_error_bits"],
                    "wall_s": perf_counter() - started,
                }
            )
            tracer.row = None
            return row

        return timed

    _patch(stack, tracer, cli, "compute_row", make)


def install_layer_wrappers(stack, tracer, modules):
    """Spans and counts at the calls into bounds, entropy, mathcore,
    inforate and channel. `modules` maps module names to the modules."""
    bounds = modules["bounds"]
    entropy = modules["entropy"]
    mathcore = modules["mathcore"]
    inforate = modules["inforate"]
    counts = tracer.counts

    def span(name, before=None):
        return lambda fn: tracer.wrap(fn, name, before)

    def hook(before):
        def make(fn):
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                before(*args, **kwargs)
                return fn(*args, **kwargs)

            return hooked

        return make

    def patch(owner, attr, make):
        _patch(stack, tracer, owner, attr, make)

    # bounds: the duality optimizer. A xi evaluation is a miss of its
    # per-xi term cache.
    optimizer = getattr(bounds, "_DualityOptimizer", None)
    if optimizer is None:
        tracer.missing.append("bounds._DualityOptimizer")
    else:
        patch(optimizer, "minimize", span("bounds.minimize"))

        def count_objective(opt, alpha):
            counts["bounds.objective.calls"] += 1

        def count_xi(opt, xi):
            # without a term cache every call evaluates the xi terms
            if float(xi) not in getattr(opt, "_terms", ()):
                counts["bounds.xi_evals"] += 1

        patch(optimizer, "objective", hook(count_objective))
        patch(optimizer, "terms", hook(count_xi))

    # entropy, looked up through the names bounds imported.
    patch(bounds, "expect_log_noncentral", span("entropy.expect_log_noncentral"))
    patch(bounds, "entropy_abs_sq", span("entropy.entropy_abs_sq"))
    patch(bounds, "entropy_delta_plus_phase", span("entropy.delta_plus_phase"))

    def count_kappas(sigma, kappas):
        counts["entropy.conv_entropies.kappas"] += getattr(kappas, "size", 1)

    patch(entropy, "_conv_entropies", span("entropy.conv_entropies", count_kappas))

    # mathcore: the adaptive quadrature (DEFAULT_QUADRATURE is an instance,
    # so the method is patched on the class) and its node cache.
    panels = []

    def count_node_cache(n_panels, a, b, *rest):
        panels.append(n_panels)

    def make_panel_nodes(panel_nodes):
        timed = tracer.wrap(panel_nodes, "mathcore.panel_nodes", count_node_cache)

        def misses():
            # without a node cache every call builds its nodes
            info = getattr(panel_nodes, "cache_info", None)
            return info().misses if info else len(panels)

        def counted(*args):
            before = misses()
            out = timed(*args)
            counts["mathcore.panel_nodes.misses"] += misses() - before
            return out

        return counted

    patch(mathcore, "_panel_nodes", make_panel_nodes)

    def make_integrate(integrate):
        timed = tracer.wrap(integrate, "mathcore.quadrature")

        def counted(quad, f, a, b):
            def f_counted(x):
                counts["mathcore.quadrature.node_evals"] += x.size
                return f(x)

            panels.clear()
            out = timed(quad, f_counted, a, b)
            if panels and panels[-1] >= quad.max_panels:
                counts["mathcore.quadrature.max_panels_hit"] += 1
            return out

        return counted

    patch(mathcore.Quadrature, "integrate", make_integrate)

    # inforate: pilot recursion, conditional entropy and forward recursion.
    patch(bounds, "adaptive_predictive_ensemble", span("inforate.adaptive_ensemble"))

    def count_pilot_steps(params, quantizer, block_length=2000, n_blocks=4, seed=0, past_window=200):
        # the block length rule of build_predictive_ensemble
        steps = max(int(block_length), max(100, int(past_window)) + 64)
        counts["inforate.pilot_steps"] += n_blocks * steps

    patch(inforate, "build_predictive_ensemble", span("inforate.ensemble", count_pilot_steps))
    patch(inforate.PredictiveEnsemble, "cond_entropy", span("inforate.cond_entropy"))
    patch(inforate, "_mixture_log_rows_separable", span("inforate.mixture_rows"))
    patch(inforate, "_mixture_log_rows_dense", span("inforate.mixture_rows"))
    patch(inforate, "_conditional_log_rows", span("inforate.conditional_rows"))

    def count_steps(transition, log_rows):
        counts["inforate.forward_steps"] += len(log_rows)

    patch(inforate, "_forward_loglik", span("inforate.forward_loglik", count_steps))
    # channel, looked up through the name inforate imported.
    patch(inforate, "simulate", span("channel.simulate"))


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (seconds and counts)."""
    summary = summarize(tracer.spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    c = tracer.counts
    return {
        "bounds.minimize.self_s": get("bounds.minimize", "self_s"),
        "bounds.objective.calls": c["bounds.objective.calls"],
        "bounds.xi_evals": c["bounds.xi_evals"],
        "mathcore.quadrature.s": get("mathcore.quadrature", "s"),
        "mathcore.quadrature.calls": get("mathcore.quadrature", "calls"),
        "mathcore.quadrature.node_evals": c["mathcore.quadrature.node_evals"],
        "mathcore.quadrature.max_panels_hit": c["mathcore.quadrature.max_panels_hit"],
        "mathcore.panel_nodes.misses": c["mathcore.panel_nodes.misses"],
        "mathcore.panel_nodes.s": get("mathcore.panel_nodes", "s"),
        "entropy.expect_log_noncentral.s": get("entropy.expect_log_noncentral", "s"),
        "entropy.expect_log_noncentral.calls": get("entropy.expect_log_noncentral", "calls"),
        "entropy.entropy_abs_sq.s": get("entropy.entropy_abs_sq", "s"),
        "entropy.entropy_abs_sq.calls": get("entropy.entropy_abs_sq", "calls"),
        "entropy.conv_entropies.s": get("entropy.conv_entropies", "s"),
        "entropy.conv_entropies.kappas": c["entropy.conv_entropies.kappas"],
        "entropy.delta_plus_phase.self_s": get("entropy.delta_plus_phase", "self_s"),
        "inforate.ensemble.s": get("inforate.ensemble", "s"),
        "inforate.ensemble.calls": get("inforate.ensemble", "calls"),
        # each adaptive call keeps one ensemble; the other builds are discarded
        "inforate.ensemble.wasted": get("inforate.ensemble", "calls")
        - get("inforate.adaptive_ensemble", "calls"),
        "inforate.pilot_steps": c["inforate.pilot_steps"],
        "inforate.cond_entropy.s": get("inforate.cond_entropy", "s"),
        "inforate.cond_entropy.calls": get("inforate.cond_entropy", "calls"),
        "inforate.mixture_rows.s": get("inforate.mixture_rows", "s"),
        "inforate.conditional_rows.s": get("inforate.conditional_rows", "s"),
        "inforate.forward_loglik.s": get("inforate.forward_loglik", "s"),
        "inforate.forward_steps": c["inforate.forward_steps"],
        "channel.simulate.s": get("channel.simulate", "s"),
    }
