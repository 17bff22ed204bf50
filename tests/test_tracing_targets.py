"""The benchmark's tracer (perfbench/tracing.py) wraps names of the package
by lookup; a rename or deletion in the package must fail here, not only in
the benchmark's own suite."""

import contextlib
import importlib.util
import math
import os

import numpy as np

from phasecap import bounds, cli, entropy, inforate, mathcore
from phasecap.channel import ChannelParams

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)
MODULES = {"bounds": bounds, "entropy": entropy, "mathcore": mathcore, "inforate": inforate}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_instrumented_name_exists():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    originals = (cli.compute_row, inforate._mixture_log_rows_dense, inforate.simulate)
    with contextlib.ExitStack() as stack:
        tracing.install_row_timer(stack, tracer, cli)
        tracing.install_layer_wrappers(stack, tracer, MODULES)
        assert tracer.missing == []
        assert inforate._mixture_log_rows_dense is not originals[1]
    # closing the stack puts every original back
    assert (cli.compute_row, inforate._mixture_log_rows_dense, inforate.simulate) == originals


def test_xi_evaluation_count_matches_the_row():
    # the tracer counts a xi evaluation as a miss of the optimizer's `_terms`
    # cache, read through getattr with an empty default; a renamed cache would
    # count every call
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        tracing.install_layer_wrappers(stack, tracer, MODULES)
        rec = bounds.memoryless_plus_correction(ChannelParams(1, np.deg2rad(6.0), 100.0))
    assert tracer.counts["bounds.xi_evals"] == rec.meta["xi_evals"]


def test_pilot_step_count_matches_the_recursion(monkeypatch):
    # the tracer keeps its own copy of the pilot block-length rule; it must
    # count the steps that the pilot recursion runs in a U row
    tracing = load_tracing()
    tracer = tracing.Tracer()
    steps = []
    forward_filter = inforate._forward_filter

    def counted(transition, lik, *rest):
        steps.append(math.prod(lik.shape[:-1]))  # state-vector steps
        return forward_filter(transition, lik, *rest)

    monkeypatch.setattr(inforate, "_forward_filter", counted)
    params = ChannelParams(1, np.deg2rad(6.0), 100.0)
    with contextlib.ExitStack() as stack:
        tracing.install_layer_wrappers(stack, tracer, MODULES)
        bounds.upper_bound_U(params, q_levels=32, block_length=300, n_blocks=2, past_window=100)
    assert sum(steps) == 600
    assert tracer.counts["inforate.pilot_steps"] == sum(steps)
