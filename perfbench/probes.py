"""Fixed-input probes of six kernels: the quadrature pair, the one-step
convolution entropy, the pilot recursion, the conditional entropy, the
mixture rows and the forward recursion.

Inputs are captured from real rows at 20 dB: the row is started through
`cli.compute_row` with the figure budgets and stopped at the kernel's first
call, whose arguments are kept. Each kernel is then timed on those inputs.
The median time is reported with the kernel's result beside it, so a
speed-up that moves a number shows.
"""

import dataclasses
import statistics
import time

import numpy as np

from workloads import CONFIG_TEMPLATE, FIGURE_BUDGETS

SNR_DB = 20.0


class _Captured(Exception):
    pass


def capture(owner, attr, run):
    """Positional arguments of the first `owner.attr` call that run() makes."""
    original = getattr(owner, attr)

    def stop(*args):
        raise _Captured(*args)

    setattr(owner, attr, stop)
    try:
        run()
    except _Captured as captured:
        return captured.args
    finally:
        setattr(owner, attr, original)
    raise RuntimeError(f"{attr} was not called")


def timed(kernel, repeats):
    """Median wall time of `repeats` calls, and the last call's value."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        value = float(kernel())
        times.append(time.perf_counter() - started)
    return {"s": statistics.median(times), "value": value, "times": times}


def run(cli, modules, master_seed, work_dir):
    bounds, entropy, inforate, mathcore = (
        modules[name] for name in ("bounds", "entropy", "inforate", "mathcore")
    )

    def row(kind, antennas):
        text = CONFIG_TEMPLATE.format(
            antennas=antennas, start=SNR_DB, stop=SNR_DB, step=1, kinds=kind,
            master_seed=master_seed, csv=f"{work_dir}/probe.csv",
            cache_dir=f"{work_dir}/cache", **FIGURE_BUDGETS,
        )
        config = dataclasses.asdict(cli.parse_config(text))
        return lambda: cli.compute_row(config, kind, SNR_DB)

    out = {}

    # The quadrature pair at xi = sqrt(rho). Every new xi of a row misses the
    # node cache, so the cache is emptied before each call.
    params = capture(bounds, "adaptive_predictive_ensemble", row("U", 1))
    xi = float(np.sqrt(params[0].snr))
    clear = getattr(getattr(mathcore, "_panel_nodes", None), "cache_clear", lambda: None)

    def quadrature_pair():
        clear()
        return entropy.expect_log_noncentral(xi, params[0].m) + entropy.entropy_abs_sq(xi)

    out["quadrature"] = timed(quadrature_pair, 7)

    # The one-step convolution entropy on the 257-node kappa table of U_s at
    # xi = sqrt(rho), with the row's sigma, sample count and seed.
    _, sigma, n_samples, seed = capture(bounds, "entropy_delta_plus_phase", row("U_s", 1))
    _, kappas = capture(
        entropy,
        "_conv_entropies",
        lambda: entropy.entropy_delta_plus_phase(xi, sigma, n_samples, seed),
    )
    out["conv_entropies"] = timed(lambda: entropy._conv_entropies(sigma, kappas).mean(), 7)

    # The pilot recursion with the U row's arguments, then the conditional
    # entropy on its ensemble. The ensemble's value is the mean log score of
    # the predictive density at the true phase cell.
    ensemble = inforate.build_predictive_ensemble(*params)

    def log_score(ens):
        cell = np.rint(ens.theta / (2.0 * np.pi / ens.grid.size)).astype(int) % ens.grid.size
        return -np.mean(np.log(ens.predictive[np.arange(ens.theta.size), cell]))

    out["ensemble"] = timed(lambda: log_score(inforate.build_predictive_ensemble(*params)), 3)
    out["cond_entropy"] = timed(lambda: ensemble.cond_entropy(xi)[0], 7)

    # One block of the qam_lower row at M=2: its mixture rows, and the
    # forward recursion over its conditional rows.
    mixture_args = capture(inforate, "_mixture_log_rows_separable", row("qam_lower", 2))
    out["mixture_rows"] = timed(
        lambda: inforate._mixture_log_rows_separable(*mixture_args).mean(), 3
    )
    forward_args = capture(inforate, "_forward_loglik", row("qam_lower", 2))
    out["forward_loglik"] = timed(lambda: inforate._forward_loglik(*forward_args), 7)
    return out
