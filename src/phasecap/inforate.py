"""Quantized-phase forward recursion for finite-state information rates.

Each recursion takes `q_levels` and builds its phase grid and transition
matrix from `params.sigma_delta` (`_phase_model`). A weight that underflows
raises `NumericUnderflowError`: raise `q_levels` for that SNR.

Two consumers:
  * `qam_rate` — achievable rates of iid per-antenna constellations, via the
    ratio of a conditional and an input-averaged forward pass.
  * `adaptive_predictive_ensemble` — the full-memory conditional
    differential entropy term of the capacity upper bound
    (`PredictiveEnsemble.cond_entropy`), via a pilot-tracking recursion to
    the one-step predictive phase density. Each density is kept once more
    on its W live levels around its peak, and `cond_entropy` sums over
    those only.

Both are Monte Carlo means over independent blocks, with the block-level
standard error of `entropy.mean_se`. Both step one forward filter,
`_forward_filter`: keep the predictive state, weight it by the likelihood
row, normalize, predict. The QAM passes hand it the exps of their log rows
less each row's peak. The input average of `qam_rate` (the mixture rows) is
one log-sum-exp kernel, `_add_logsumexp`, over real points, whatever the set,
run one cache-sized row block at a time (exact: every operation is row-wise).
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .channel import simulate, wiener_phase
from .entropy import LOG_2PI, BoundRecord, mean_se, sample_circular_gaussian
from .errors import ConfigurationError, DomainError, NumericUnderflowError
from .mathcore import TWO_PI, rician_phase_pdf, wrapped_gaussian_cdf

LOG_PI = float(np.log(np.pi))

# Smallest usable phase grid, block budget and pilot burn-in (the past window),
# and the fewest samples a pilot block keeps after its burn-in; the sweep
# config is checked against them.
MIN_Q_LEVELS = 8
MIN_BLOCK_LENGTH = 100
MIN_N_BLOCKS = 2
MIN_PAST_WINDOW = 100
MIN_KEPT_STEPS = 64

# `cond_entropy` reads a predictive density on its levels above this share
# of its peak (see `_live_window`).
PREDICTIVE_CUT = 1e-18

# The mixture-row exponents are clipped here before the exp: exp of anything
# below about -708 is subnormal or 0 and takes a slow path, and a clipped term
# adds at most e^-700 to a sum that is at least 1, below half an ulp of it.
EXP_FLOOR = -700.0

# Cells per row block of the mixture rows: a pass over a block stays in L2.
MIXTURE_BLOCK_CELLS = 2**15


def _wrap_pm_pi(x):
    return np.mod(x + np.pi, TWO_PI) - np.pi


def _phase_model(sigma_delta, q_levels):
    """Uniform Q-level grid on [0, 2pi) and the wrapped-Gaussian transition
    kernel of the phase increment, integrated over destination cells. The
    matrix is circulant and row-stochastic by construction."""
    if sigma_delta <= 0:
        raise DomainError(f"sigma_delta must be > 0, got {sigma_delta}")
    q = int(q_levels)
    grid = TWO_PI * np.arange(q) / q
    w = TWO_PI / q
    row = wrapped_gaussian_cdf(grid + 0.5 * w, sigma_delta) - wrapped_gaussian_cdf(
        grid - 0.5 * w, sigma_delta
    )
    row = row / row.sum()
    idx = (np.arange(q)[None, :] - np.arange(q)[:, None]) % q
    return grid, row[idx]


def _check_blocks(q_levels, block_length, n_blocks):
    if q_levels < MIN_Q_LEVELS:
        raise ConfigurationError(f"q_levels must be >= {MIN_Q_LEVELS}, got {q_levels}")
    if block_length < MIN_BLOCK_LENGTH:
        raise ConfigurationError(f"block_length must be >= {MIN_BLOCK_LENGTH}, got {block_length}")
    if n_blocks < MIN_N_BLOCKS:
        raise ConfigurationError(f"n_blocks must be >= {MIN_N_BLOCKS}, got {n_blocks}")


def _forward_filter(transition, lik, states=None):
    """Predict-weight-normalize over the quantized phase, for the pilot and
    the QAM recursions alike.

    `lik` holds (n, Q) likelihood rows in the linear domain. From the uniform
    state predicted once (invariant up to rounding), each step keeps the state
    (in `states[l]`, if given), weights it by its row, normalizes by the sum c
    and predicts. Returns the (n,) log normalizers.
    """
    norms = np.empty(len(lik))
    state = np.full(transition.shape[0], 1.0 / transition.shape[0]) @ transition
    v = np.empty_like(state)
    for l, row in enumerate(lik):
        if states is not None:
            states[l] = state
        c = norms[l] = np.multiply(state, row, out=v).sum()
        if not 0.0 < c < np.inf:
            raise NumericUnderflowError(
                "forward-recursion weight underflowed; raise q_levels for this SNR"
            )
        np.dot(np.divide(v, c, out=v), transition, out=state)
    return np.log(norms)


def _forward_loglik(transition, log_rows):
    """Log-likelihood of a block from its (n, Q) log-likelihood rows: each
    row's peak comes off before the exps, and the filter's log normalizers
    plus the peaks are summed in step order. A row without a finite peak
    gives a NaN normalizer, on which the filter raises."""
    peak = np.max(log_rows, axis=1)
    with np.errstate(invalid="ignore"):  # -inf - -inf on a row with no finite peak
        lik = np.exp(log_rows - peak[:, None])
    return np.cumsum(_forward_filter(transition, lik) + peak)[-1]


def _conditional_log_rows(y, x, grid, m):
    """log p(y_k | theta_q, x_k) for the transmitted symbols, shape (n, Q).

    Uses ||y - e^{j theta} x||^2 = ||y||^2 + ||x||^2 - 2 Re(e^{j theta} y^H x).
    """
    ip = np.sum(np.conj(y) * x, axis=1)
    const = -np.sum(np.abs(y) ** 2, axis=1) - np.sum(np.abs(x) ** 2, axis=1) - m * LOG_PI
    re = np.cos(grid)[None, :] * ip.real[:, None] - np.sin(grid)[None, :] * ip.imag[:, None]
    return 2.0 * re + const[:, None]


def _add_logsumexp(rows, c, points):
    """rows += log sum_w exp(2 w.c - |w|^2), in place, over the real points w.

    `points` is (S, d) and `c` holds the d (n, Q) projections. The exponent
    |c|^2 - |w - c|^2 peaks at the point nearest to c; a running max over the
    points finds that peak, and it is taken off before the exps, whose
    exponents are clipped at EXP_FLOOR.
    """
    term = np.empty_like(c[0])

    def exponent(w):  # 2 w.c, into term
        np.multiply(c[0], 2.0 * w[0], out=term)
        for cj, wj in zip(c[1:], w[1:]):
            np.add(term, cj * (2.0 * wj), out=term)
        return term

    peak = np.full_like(term, -np.inf)
    for w in points:
        np.maximum(peak, np.subtract(exponent(w), w @ w, out=term), out=peak)
    total = np.zeros_like(term)
    for w in points:
        exponent(w)
        term -= peak
        term -= w @ w
        np.maximum(term, EXP_FLOOR, out=term)
        total += np.exp(term, out=term)
    rows += np.log(total, out=total)
    rows += peak


def _projections(y, grid):
    """Re p and -Im p of p = e^{j grid} conj(y_i), each (n, Q), for each
    antenna i in turn, so that Re(p s) = Re s Re p + Im s (-Im p)."""
    cos_g, sin_g = np.cos(grid)[None, :], np.sin(grid)[None, :]
    for yr, yi in zip(y.real.T[:, :, None], y.imag.T[:, :, None]):
        yield cos_g * yr + sin_g * yi
        yield cos_g * yi - sin_g * yr


def _mixture_log_rows_separable(y, symbols, grid, m):
    """Input-averaged log-likelihood rows.

    With H = I the average over the |X|^m input vectors factorizes exactly
    into per-antenna sums of exp(2 Re(p s) - |s|^2) over the symbols s, with
    p = e^{j theta} conj(y_i): the points (Re s, Im s) against (Re p, -Im p).
    A product set {a + jb} (square QAM: distinct symbols and #re * #im ==
    #symbols) factors once more, into one sum over the levels of each PAM
    axis against its own projection. The rows go one block of about
    MIXTURE_BLOCK_CELLS cells at a time, so that the passes stay in cache;
    every operation is row-wise, so that changes no bit.
    """
    re, im = np.unique(symbols.real), np.unique(symbols.imag)
    rows = np.zeros((y.shape[0], grid.size))
    step = max(1, MIXTURE_BLOCK_CELLS // grid.size)
    for start in range(0, y.shape[0], step):
        yb, out = y[start : start + step], rows[start : start + step]
        proj = _projections(yb, grid)
        if re.size * im.size == symbols.size:
            for levels, c in zip((re, im) * m, proj):
                _add_logsumexp(out, (c,), levels[:, None])
        else:
            points = np.stack([symbols.real, symbols.imag], axis=1)
            for c in zip(proj, proj):  # (Re p, -Im p) of each antenna
                _add_logsumexp(out, c, points)
        out -= m * np.log(symbols.size)
        out += (-np.sum(np.abs(yb) ** 2, axis=1) - m * LOG_PI)[:, None]
    return rows


def _mixture_log_rows_dense(y, vectors, grid, m):
    """Input-averaged log-likelihood rows over an explicit list of input
    vectors v, summed without factoring over the points (Re v_1, Im v_1, ...,
    Re v_m, Im v_m): the exhaustive reference for `_mixture_log_rows_separable`."""
    rows = np.zeros((y.shape[0], grid.size))
    points = np.stack([vectors.real, vectors.imag], axis=2).reshape(vectors.shape[0], 2 * m)
    _add_logsumexp(rows, tuple(_projections(y, grid)), points)
    rows -= np.log(vectors.shape[0])
    rows += (-np.sum(np.abs(y) ** 2, axis=1) - m * LOG_PI)[:, None]
    return rows


def qam_rate(
    params, constellation, q_levels=200, block_length=2000, n_blocks=4, seed=0, theta0=None
):
    """Achievable rate (bits/channel use) of iid per-antenna signaling.

    Estimates (1/n)[log p(y^n | x^n) - log p(y^n)] with two forward passes
    over the quantized phase state, averaged over independent blocks. The
    `BoundRecord` carries the block-level standard error; its `meta` holds
    the number of input vectors the mixture rows sum (`mixture_size`) and
    the channel uses simulated (`n_samples`).
    """
    _check_blocks(q_levels, block_length, n_blocks)
    grid, transition = _phase_model(params.sigma_delta, q_levels)
    m = params.m
    symbols = constellation.scaled_symbols(params.snr, m)
    meta = {"mixture_size": symbols.size**m, "n_samples": block_length * n_blocks}

    block_rates = np.empty(n_blocks)
    for b in range(n_blocks):
        rng = np.random.default_rng([int(seed), b, 0xA])
        idx = rng.integers(0, symbols.size, size=(block_length, m))
        x = symbols[idx]
        y, _ = simulate(params, x, seed=[int(seed), b, 0xB], theta0=theta0)
        cond_rows = _conditional_log_rows(y, x, grid, m)
        ll_cond = _forward_loglik(transition, cond_rows)
        if symbols.size == 1:
            # the input average is over a single vector: the two passes
            # coincide bit-for-bit and the rate is identically zero
            rows = cond_rows
        else:
            rows = _mixture_log_rows_separable(y, symbols, grid, m)
        ll_mix = _forward_loglik(transition, rows)
        block_rates[b] = (ll_cond - ll_mix) / (block_length * np.log(2.0))

    return BoundRecord(*mean_se(block_rates), meta=meta)


def _live_window(predictive, grid):
    """The levels of each predictive density that `cond_entropy` reads.

    Returns the phase of each row's peak level, the W phase offsets j h
    (h = 2 pi / Q, j = -half .. W - half - 1) of the window around it, and
    the (W, N) window of densities, one row per offset. W = 2 half + 1 is the
    smallest width that holds every level above PREDICTIVE_CUT of its row's
    peak, over all rows; once that would reach Q, the window is all Q levels.
    """
    n, q = predictive.shape
    flat = predictive.ravel()
    peak = predictive.argmax(axis=1)
    row_start = np.arange(n) * q
    at_peak = row_start + peak  # flat index of each row's peak
    live = np.flatnonzero(predictive > PREDICTIVE_CUT * flat[at_peak][:, None])
    step = (live - at_peak[live // q]) % q  # level of each live cell, counted from its peak
    half = int(np.minimum(step, q - step).max())
    steps = np.arange(min(2 * half + 1, q)) - half
    window = np.empty((steps.size, n))
    for out, j in zip(window, steps):
        np.take(flat, row_start + (peak + j) % q, out=out)
    return grid[peak], TWO_PI / q * steps, window


@dataclass(frozen=True)
class PredictiveEnsemble:
    """Per-sample predictive phase densities from a pilot-tracking recursion.

    Each sample carries p(theta_l | peak-power pilot past), the true phase
    theta_l, and an independent CN(0,1) draw for the current observation,
    in `n_blocks` consecutive runs of equal length, one per block.
    The ensemble is independent of xi, so one build serves every point of
    the amplitude optimization with common random numbers.

    `predictive` is (N, Q), on the full grid. Construction keeps each density
    once more on its W live levels (see `_live_window`): `window` (W, N),
    centred on the level at phase `centre` (N,), at the phase `offsets` (W,)
    from it. These are derived from `predictive`, so an ensemble built from
    a row slice carries the window that a fresh build of those rows would.
    """

    grid: np.ndarray
    predictive: np.ndarray
    theta: np.ndarray
    z_test: np.ndarray
    past_window: int
    n_blocks: int
    centre: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    window: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        live = _live_window(self.predictive, self.grid)
        for name, value in zip(("centre", "offsets", "window"), live):
            object.__setattr__(self, name, value)

    @property
    def n_samples(self):
        return self.theta.size

    def cond_entropy(self, xi):
        """h(theta_0 + phi_0(xi^2) | pilot past, |xi + z_0|) in nats.

        Evaluates -log of the predictive density circularly convolved with
        the von Mises conditional of phi_0 given the realized amplitude, at
        the realized observation, and averages per block. The convolution
        runs over each sample's window only; with v = u0 - centre,
        cos(u0 - centre - d) = cos v cos d + sin v sin d is an outer product
        over the (W,) offsets d and the (N,) samples.
        """
        if xi < 0:
            raise DomainError(f"xi must be >= 0, got {xi}")
        if xi == 0.0:
            return LOG_2PI, 0.0
        zr = xi + self.z_test
        r = np.abs(zr)
        kappa = 2.0 * r * xi
        v = self.theta + np.angle(zr) - self.centre
        t = np.multiply.outer(np.cos(self.offsets), np.cos(v))
        t += np.multiply.outer(np.sin(self.offsets), np.sin(v))
        t -= 1.0
        t *= kappa
        mix = np.einsum("wn,wn->n", self.window, np.exp(t, out=t))
        if np.any(mix <= 0.0) or not np.all(np.isfinite(mix)):
            raise NumericUnderflowError(
                "predictive/von-Mises mixture underflowed; raise q_levels for this SNR"
            )
        values = -np.log(mix) + np.log(TWO_PI * special.i0e(kappa))
        return mean_se(np.array([block.mean() for block in np.split(values, self.n_blocks)]))


def build_predictive_ensemble(
    params, q_levels=200, block_length=2000, n_blocks=4, seed=0, past_window=200
):
    """Run the pilot forward recursion and collect predictive densities.

    Pilots are sent at peak power (s^2 = snr); `_forward_filter` weights by
    the exact phase likelihood p(u_l | theta_l) = f_phi(u_l - theta_l; snr).
    Each block runs `block_length` steps and keeps its states after the
    first `past_window`, the burn-in, which must lie in [MIN_PAST_WINDOW,
    block_length - MIN_KEPT_STEPS]. The ensemble keeps the full (N, Q)
    densities and, for `cond_entropy`, their live window. Nothing here reads
    params.m: the ensemble is the same for every M.
    """
    _check_blocks(q_levels, block_length, n_blocks)
    n, burn = int(block_length), int(past_window)
    if not MIN_PAST_WINDOW <= burn <= n - MIN_KEPT_STEPS:
        raise ConfigurationError(
            f"past_window must be in [{MIN_PAST_WINDOW}, {n - MIN_KEPT_STEPS}], got {past_window}"
        )
    keep = n - burn
    grid, transition = _phase_model(params.sigma_delta, q_levels)

    predictive = np.empty((n_blocks * keep, grid.size))
    theta_out = np.empty(n_blocks * keep)
    z_out = np.empty(n_blocks * keep, dtype=complex)

    for b in range(n_blocks):
        rng = np.random.default_rng([int(seed), b, 0xE])
        theta = wiener_phase(rng, params.sigma_delta, n)
        z_pilot = sample_circular_gaussian(rng, n)
        z_test = sample_circular_gaussian(rng, n)
        u = np.mod(theta + np.angle(1.0 + z_pilot / np.sqrt(params.snr)), TWO_PI)
        lik = rician_phase_pdf(_wrap_pm_pi(u[:, None] - grid[None, :]), params.snr)

        base = b * keep
        states = np.empty_like(lik)
        _forward_filter(transition, lik, states)
        predictive[base : base + keep] = states[burn:]
        del states  # not held while the next block's likelihood is built
        theta_out[base : base + keep] = theta[burn:]
        z_out[base : base + keep] = z_test[burn:]

    return PredictiveEnsemble(grid, predictive, theta_out, z_out, burn, int(n_blocks))


def adaptive_predictive_ensemble(
    params, q_levels=200, block_length=2000, n_blocks=4, seed=0, past_window=200
):
    """Double the past window until the entropy estimate stabilizes.

    The convergence probe is evaluated at xi = sqrt(snr), the most
    window-sensitive point. Stops once the estimate moves by less than half
    its std error, after at most three doublings, or before a window would
    leave a block fewer than MIN_KEPT_STEPS samples. The pilot recursion
    runs once: a wider window w' drops the first w' - w samples of each block.
    """
    ensemble = build_predictive_ensemble(
        params, q_levels, block_length, n_blocks, seed, past_window
    )
    xi_ref = np.sqrt(params.snr)
    value, _ = ensemble.cond_entropy(xi_ref)
    for _ in range(3):
        window = 2 * ensemble.past_window
        if window + MIN_KEPT_STEPS > block_length:
            break
        keep = ensemble.n_samples // n_blocks
        rows = np.arange(ensemble.n_samples) % keep >= window - ensemble.past_window
        sliced = {f: getattr(ensemble, f)[rows] for f in ("predictive", "theta", "z_test")}
        wider = replace(ensemble, past_window=window, **sliced)
        new_value, new_se = wider.cond_entropy(xi_ref)
        moved = abs(new_value - value)
        ensemble, value = wider, new_value
        if moved < 0.5 * max(new_se, 1e-12):
            break
    return ensemble
