"""The benchmark's kernel probes (perfbench/probes.py) capture the arguments
of package functions by name and read the ensemble's arrays; a rename or a
changed shape in the package must fail here, not only in the benchmark."""

import dataclasses
import inspect
import os
import re

import numpy as np
import pytest

from phasecap import bounds, cli, entropy, inforate
from phasecap.channel import ChannelParams

PROBES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "probes.py"
)


def test_every_captured_name_exists():
    with open(PROBES) as fh:
        captured = re.findall(r"capture\(\s*(\w+),\s*\"(\w+)\"", fh.read())
    assert len(captured) == 5
    modules = {"bounds": bounds, "entropy": entropy, "inforate": inforate}
    for owner, attr in captured:
        assert callable(getattr(modules[owner], attr, None)), f"{owner}.{attr}"


def test_ensemble_builders_take_the_same_positional_arguments():
    # the probes call build_predictive_ensemble(*args) with the arguments they
    # capture from adaptive_predictive_ensemble, and the tracer binds them by
    # position
    adaptive, build = (
        list(inspect.signature(f).parameters)
        for f in (inforate.adaptive_predictive_ensemble, inforate.build_predictive_ensemble)
    )
    assert adaptive == build


def test_ensemble_arrays_and_cond_entropy_value():
    params = ChannelParams(1, np.deg2rad(6.0), 100.0)
    ens = inforate.build_predictive_ensemble(params, 32, 200, 2, 0, 100)
    # the probes index predictive[sample, cell] with the flat theta array
    assert ens.theta.shape == (ens.theta.size,)
    assert ens.predictive.shape == (ens.theta.size, ens.grid.size)
    assert type(ens.cond_entropy(10.0)[0]) is float


def test_one_step_entropy_reaches_conv_entropies_after_a_u_s_row(monkeypatch):
    # the conv_entropies probe runs in a fresh interpreter: it stops a U_s row
    # at its first `bounds.entropy_delta_plus_phase(xi, sigma, n_samples,
    # seed)` call, then a standalone one-step entropy call at its first
    # `_conv_entropies(sigma, kappas)` call
    entropy.clear_tables()
    params = ChannelParams(1, np.deg2rad(6.0), 100.0)
    row_calls, calls = [], []

    class Captured(Exception):
        pass

    def stopper(into):
        def stop(*args, **kwargs):
            into.append((args, kwargs))
            raise Captured

        return stop

    monkeypatch.setattr(bounds, "entropy_delta_plus_phase", stopper(row_calls))
    with pytest.raises(Captured):
        bounds.upper_bound_Us(params, n_samples=1000, seed=3)
    (((_, sigma, n_samples, seed), row_kwargs),) = row_calls
    assert row_kwargs == {} and (sigma, n_samples, seed) == (params.sigma_delta, 1000, 3)

    monkeypatch.setattr(entropy, "_conv_entropies", stopper(calls))
    with pytest.raises(Captured):
        entropy.entropy_delta_plus_phase(10.0, sigma, n_samples, seed)
    ((args, kwargs),) = calls
    assert len(args) == 2 and kwargs == {}
    assert args[0] == params.sigma_delta and args[1].ndim == 1


def test_qam_row_runs_one_block_per_forward_pass(monkeypatch):
    # the forward_loglik probe times float(_forward_loglik(*args)) on the
    # arguments of a qam_lower row's first call: one block's
    # (block_length, 2, q_levels) conditional and mixture rows, to one scalar
    # log-likelihood ratio
    config = dataclasses.asdict(
        cli.parse_config(
            "[channel]\nantennas = 2\n[mc]\nblock_length = 100\nn_blocks = 2\n"
            "q_levels = 32\nconstellation = qam16\n"
        )
    )
    forward = inforate._forward_loglik
    shapes = []

    def spy(transition, log_rows):
        value = forward(transition, log_rows)
        float(value)  # as the probe does
        shapes.append((transition.shape, log_rows.shape))
        return value

    monkeypatch.setattr(inforate, "_forward_loglik", spy)
    assert cli.compute_row(config, "qam_lower", 20.0)["kind"] == "qam_lower"
    # one pass per block, its conditional and mixture chains stepped together
    assert shapes == [((32, 32), (100, 2, 32))] * 2
