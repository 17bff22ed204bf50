"""The benchmark's kernel probes (perfbench/probes.py) capture the arguments
of package functions by name and read the ensemble's arrays; a rename or a
changed shape in the package must fail here, not only in the benchmark."""

import inspect
import os
import re

import numpy as np
import pytest

from phasecap import bounds, entropy, inforate
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
    # the conv_entropies probe stops a standalone one-step entropy call at its
    # first `_conv_entropies(sigma, kappas)` call, after a U_s row has run
    params = ChannelParams(1, np.deg2rad(6.0), 100.0)
    bounds.upper_bound_Us(params, n_samples=1000, seed=3)
    calls = []

    class Captured(Exception):
        pass

    def stop(*args, **kwargs):
        calls.append((args, kwargs))
        raise Captured

    monkeypatch.setattr(entropy, "_conv_entropies", stop)
    with pytest.raises(Captured):
        entropy.entropy_delta_plus_phase(10.0, params.sigma_delta, 1000, 3)
    ((args, kwargs),) = calls
    assert len(args) == 2 and kwargs == {}
    assert args[0] == params.sigma_delta and args[1].ndim == 1
