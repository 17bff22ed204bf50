"""Quantized-phase forward recursion for finite-state information rates.

Each recursion takes `q_levels`, a multiple of 4, and builds its phase grid
and transition matrix from `params.sigma_delta` (`_phase_model`). A weight
that underflows raises `NumericUnderflowError`: raise `q_levels` for that SNR.

Two consumers:
  * `qam_rate` — achievable rates of iid per-antenna constellations, via the
    ratio of a conditional and an input-averaged forward chain, stepped
    together as one (2, Q) state per block.
  * `adaptive_predictive_ensemble` — the full-memory conditional
    differential entropy term of the capacity upper bound
    (`PredictiveEnsemble.cond_entropy`), via a pilot-tracking recursion to
    the one-step predictive phase density, all blocks in one state. The
    pilot likelihood reads the phase difference only through its cosine (an
    outer product of pilot and grid terms). Each density is kept once more
    on its W live levels around its peak, and `cond_entropy` sums over those
    only, in one (W, N) buffer. The samples are step-major, so a wider past
    window drops a head of every array and keeps the rest as a slice.

Both are Monte Carlo means over independent blocks, with the block-level
standard error of `entropy.mean_se`. Both step one forward filter,
`_forward_filter`: keep the predictive state, weight it by the likelihood
row, normalize, predict. Both hand it one chunk of likelihood rows at a
time and carry the state from chunk to chunk. The QAM pass writes a block's
conditional and mixture log rows into one (n, 2, Q) array, reused from
block to block, and streams the exps of each chunk, less each row's peak,
through one chunk-sized buffer. The input average of `qam_rate` (the
mixture rows) is one log-sum-exp kernel, `_add_logsumexp`, over real
points, whatever the set. The conditional and mixture rows, the filter
chunks and the live-window search run one cache-sized block at a time
(exact: every operation is row-wise, and the state carries over exactly).
For square QAM the points are the levels of a PAM axis, and a row, being
pi/2-periodic, is built on the first quarter-turn and copied into the rest.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .channel import simulate, wiener_phase
from .entropy import LOG_2PI, BoundRecord, mean_se, sample_circular_gaussian
from .errors import ConfigurationError, DomainError, NumericUnderflowError
from .mathcore import TWO_PI, _rician_branches, _rician_cos_pdf, _row_blocks, wrapped_gaussian_cdf

LOG_PI = float(np.log(np.pi))

# Smallest usable phase grid, block budget and pilot burn-in (the past window),
# and the fewest samples a pilot block keeps after its burn-in; the sweep
# config is checked against them.
MIN_Q_LEVELS = 8
MIN_BLOCK_LENGTH = 100
MIN_N_BLOCKS = 2
MIN_PAST_WINDOW = 100
MIN_KEPT_STEPS = 64

# A square-QAM mixture row is built on one quarter-turn (Q/4 grid steps) and
# copied into the other three, so Q must be a multiple of this.
Q_LEVELS_MULTIPLE = 4

# `cond_entropy` reads a predictive density on its levels above this share
# of its peak (see `_live_window`).
PREDICTIVE_CUT = 1e-12

# The mixture-row exponents are clipped here before the exp: exp of anything
# below about -708 is subnormal or 0 and takes a slow path, and a clipped term
# adds at most e^-700 to a sum that is at least 1, below half an ulp of it.
EXP_FLOOR = -700.0

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
    if q_levels % Q_LEVELS_MULTIPLE:
        raise ConfigurationError(
            f"q_levels must be a multiple of {Q_LEVELS_MULTIPLE}, got {q_levels}"
        )
    if block_length < MIN_BLOCK_LENGTH:
        raise ConfigurationError(f"block_length must be >= {MIN_BLOCK_LENGTH}, got {block_length}")
    if n_blocks < MIN_N_BLOCKS:
        raise ConfigurationError(f"n_blocks must be >= {MIN_N_BLOCKS}, got {n_blocks}")


def _forward_filter(transition, lik, state, states=None):
    """Predict-weight-normalize over the quantized phase, for the pilot and
    the QAM recursions alike.

    `lik` holds (n, Q) likelihood rows in the linear domain, or (n, B, Q)
    rows of B chains stepped together as one (B, Q) state. From the carried
    `state`, updated in place, each step keeps the state (in `states[l]`, if
    given), weights it by its row, normalizes by the sum c and predicts.
    Returns the log normalizers; one that is 0 or not finite raises after
    the last step.
    """
    norms = np.empty(lik.shape[:-1])
    v = np.empty_like(state)
    # each step's c is a (B, 1) view of its normalizers, which broadcasts over Q
    with np.errstate(divide="ignore", invalid="ignore"):
        for l, (row, c) in enumerate(zip(lik, norms[..., None])):
            if states is not None:
                states[l] = state
            np.add.reduce(np.multiply(state, row, out=v), axis=-1, keepdims=True, out=c)
            np.divide(v, c, out=v)
            np.dot(v, transition, out=state)
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise NumericUnderflowError(
            "forward-recursion weight underflowed; raise q_levels for this SNR"
        )
    return np.log(norms)


def _forward_loglik(transition, log_rows):
    """Log-likelihood ratio ll_cond - ll_mix of a block from its (n, 2, Q)
    log-likelihood rows, conditional then mixture, stepped as one (2, Q)
    state. The name predates the ratio: the benchmark's probes and tracer
    look the function up by it (ROADMAP item 1).

    One row block at a time, each row's peak comes off before the exps,
    which go into one reused buffer, and `_forward_filter` steps the carried
    state through them; the state carries over the block edges exactly. Each
    chain's log normalizers plus peaks are summed in step order. A row
    without a finite peak gives a NaN normalizer, on which the filter raises.
    """
    n, chains, q = log_rows.shape
    peak = np.max(log_rows, axis=2)
    norms = np.empty((n, chains))
    state = np.full((chains, q), 1.0 / q) @ transition
    blocks = list(_row_blocks(n, chains * q))
    buffer = np.empty_like(log_rows[blocks[0]])  # the first block is the largest
    for block in blocks:
        rows = log_rows[block]
        lik = buffer[: len(rows)]
        with np.errstate(invalid="ignore"):  # -inf - -inf on a row with no finite peak
            np.subtract(rows, peak[block, :, None], out=lik)
        np.exp(lik, out=lik)
        norms[block] = _forward_filter(transition, lik, state)
    ll_cond, ll_mix = np.cumsum(norms + peak, axis=0)[-1]
    return ll_cond - ll_mix


def _conditional_log_rows(y, x, grid, m, rows):
    """log p(y_k | theta_q, x_k) for the transmitted symbols, into the (n, Q)
    `rows`, one row block at a time.

    Uses ||y - e^{j theta} x||^2 = ||y||^2 + ||x||^2 - 2 Re(e^{j theta} y^H x).
    """
    ip = 2.0 * np.sum(np.conj(y) * x, axis=1)
    const = -np.sum(np.abs(y) ** 2, axis=1) - np.sum(np.abs(x) ** 2, axis=1) - m * LOG_PI
    cos_g, sin_g = np.cos(grid), np.sin(grid)
    for block in _row_blocks(len(ip), grid.size):
        out = rows[block]
        np.multiply.outer(ip.real[block], cos_g, out=out)
        out -= np.multiply.outer(ip.imag[block], sin_g)
        out += const[block, None]


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


def _mixture_log_rows_separable(y, symbols, grid, m, rows):
    """Input-averaged log-likelihood rows, into the (n, Q) `rows`, returned.

    With H = I the average over the |X|^m input vectors factorizes exactly
    into per-antenna sums of exp(2 Re(p s) - |s|^2) over the symbols s, with
    p = e^{j theta} conj(y_i): the points (Re s, Im s) against (Re p, -Im p).

    Square QAM, the product set L x L of real levels with L = -L, factors
    once more, into f_L(c) = log sum_{w in L} exp(2 w c - w^2) over each PAM
    axis, and its row is exactly pi/2-periodic: as -Im p(theta) =
    Re p(theta + pi/2), Re p(theta + pi) = -Re p(theta) and f_L(-c) = f_L(c),
    each antenna adds f_L(Re p) at theta and at theta + pi/2, and a
    quarter-turn on swaps the two. On the grid theta_q = 2 pi q / Q, Q a
    multiple of 4, each antenna's (n, Q/2) table of f_L(Re p) on the first
    half-turn adds its two quarter-turns into the first Q/4 columns, and
    that quarter is copied into the other three. Only rounding moves against
    sums over all Q phases. Any other set sums its points on all Q phases.

    The rows go one block of about ROW_BLOCK_CELLS cells at a time, so
    that the passes stay in cache; every operation is row-wise, so that
    changes no bit.
    """
    levels = np.unique(symbols.real)
    q = grid.size
    product = levels.size**2 == symbols.size and np.array_equal(levels, np.unique(symbols.imag))
    pam = product and np.array_equal(levels, -levels[::-1])  # square QAM: L x L with L = -L
    width = q // 4 if pam else q  # the columns built; the row repeats with this period
    if pam:
        cos_h, sin_h = np.cos(grid[: 2 * width]), np.sin(grid[: 2 * width])
        levels = levels[:, None]
    else:
        points = np.stack([symbols.real, symbols.imag], axis=1)
    for block in _row_blocks(y.shape[0], q):
        yb, out = y[block], rows[block]
        head = out[:, :width]
        head.fill(0.0)
        if pam:
            for yr, yi in zip(yb.real.T, yb.imag.T):
                c = np.multiply.outer(yr, cos_h) + np.multiply.outer(yi, sin_h)  # Re p
                table = np.zeros_like(c)
                _add_logsumexp(table, (c,), levels)
                head += table[:, :width]
                head += table[:, width:]
        else:
            proj = _projections(yb, grid)
            for c in zip(proj, proj):  # (Re p, -Im p) of each antenna
                _add_logsumexp(head, c, points)
        head -= m * np.log(symbols.size)
        head += (-np.sum(np.abs(yb) ** 2, axis=1) - m * LOG_PI)[:, None]
        for s in range(width, q, width):
            out[:, s : s + width] = head
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


def qam_rate(params, constellation, q_levels=200, block_length=2000, n_blocks=4, seed=0):
    """Achievable rate (bits/channel use) of iid per-antenna signaling.

    Estimates (1/n)[log p(y^n | x^n) - log p(y^n)] over the quantized phase
    state, averaged over independent blocks. Each block's conditional and
    mixture rows go into one (n, 2, Q) array, reused from block to block,
    and one forward pass (`_forward_loglik`) steps both chains as one
    (2, Q) state to the block's log-likelihood ratio. The `BoundRecord`
    carries the block-level standard error; its `meta` holds the number of
    input vectors the mixture rows sum (`mixture_size`) and the channel uses
    simulated (`n_samples`). A one-symbol constellation carries no
    information, and its rate is 0 without a pass.
    """
    _check_blocks(q_levels, block_length, n_blocks)
    grid, transition = _phase_model(params.sigma_delta, q_levels)
    m = params.m
    symbols = constellation.scaled_symbols(params.snr, m)
    meta = {"mixture_size": symbols.size**m, "n_samples": block_length * n_blocks}
    if symbols.size == 1:
        return BoundRecord(0.0, 0.0, meta=meta)

    rows = np.empty((block_length, 2, q_levels))  # conditional, mixture
    block_rates = np.empty(n_blocks)
    for b in range(n_blocks):
        rng = np.random.default_rng([int(seed), b, 0xA])
        idx = rng.integers(0, symbols.size, size=(block_length, m))
        x = symbols[idx]
        y, _ = simulate(params, x, seed=[int(seed), b, 0xB])
        _conditional_log_rows(y, x, grid, m, rows[:, 0])
        _mixture_log_rows_separable(y, symbols, grid, m, rows[:, 1])
        block_rates[b] = _forward_loglik(transition, rows) / (block_length * np.log(2.0))

    return BoundRecord(*mean_se(block_rates), meta=meta)


def _window_steps(half, q):
    """Offsets -half .. W - half - 1 of a window of W = min(2 half + 1, Q) levels."""
    return np.arange(min(2 * half + 1, q)) - half


def _live_window(predictive, grid):
    """The levels of each predictive density that `cond_entropy` reads.

    Returns the phase of each row's peak level, the W phase offsets j h
    (h = 2 pi / Q, j from `_window_steps`) of the window around it, the
    (W, N) window of densities, one row per offset, and each row's reach:
    the circular distance from its peak to its farthest level above
    PREDICTIVE_CUT of the peak. half is the largest reach. The reach is a
    masked max over row blocks, so the search holds no array larger than a
    block.
    """
    n, q = predictive.shape
    peak, reach = np.empty((2, n), dtype=np.intp)
    for block in _row_blocks(n, q):
        dens, pk = predictive[block], peak[block]
        np.argmax(dens, axis=1, out=pk)
        top = np.take_along_axis(dens, pk[:, None], axis=1)
        step = np.abs(np.arange(q) - pk[:, None])
        np.minimum(step, q - step, out=step)  # circular distance from the peak
        step[dens <= PREDICTIVE_CUT * top] = 0
        step.max(axis=1, out=reach[block])
    steps = _window_steps(int(reach.max()), q)
    flat = predictive.ravel()
    row_start = np.arange(n) * q
    window = np.empty((steps.size, n))
    for out, j in zip(window, steps):
        np.take(flat, row_start + (peak + j) % q, out=out)
    return grid[peak], TWO_PI / q * steps, window, reach


@dataclass
class PredictiveEnsemble:
    """Per-sample predictive phase densities from a pilot-tracking recursion.

    Each sample carries p(theta_l | peak-power pilot past), the true phase
    theta_l, and an independent CN(0,1) draw for the current observation.
    The samples are step-major: sample i is step `past_window + i // B` of
    block `i % B`, with B = `n_blocks`.
    The ensemble is independent of xi, so one build serves every point of
    the amplitude optimization with common random numbers.

    `predictive` is (N, Q), on the full grid. Construction keeps each density
    once more on its W live levels (see `_live_window`): `window` (W, N),
    centred on the level at phase `centre` (N,), at the phase `offsets` (W,)
    from it, and each sample's `reach`. These are derived from `predictive`
    and equal a fresh build's, also after `_widen`, whose arrays are slices
    of the build's.
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
    reach: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.centre, self.offsets, self.window, self.reach = _live_window(
            self.predictive, self.grid
        )

    @property
    def n_samples(self):
        return self.theta.size

    def _widen(self, past_window):
        """Drop each block's first `past_window - self.past_window` samples,
        as a build with `past_window` would. Samples are step-major, so those
        are the head of every array, and each array becomes its tail: the
        window keeps the rows that the kept samples' largest reach needs."""
        cut = (past_window - self.past_window) * self.n_blocks
        half = int(self.reach.max())
        for name in ("predictive", "theta", "z_test", "centre", "reach"):
            setattr(self, name, getattr(self, name)[cut:])
        steps = _window_steps(int(self.reach.max()), self.grid.size)
        self.offsets = TWO_PI / self.grid.size * steps
        self.window = self.window[half + steps[0] : half + steps[0] + steps.size, cut:]
        self.past_window = past_window

    def cond_entropy(self, xi):
        """h(theta_0 + phi_0(xi^2) | pilot past, |xi + z_0|) in nats.

        Evaluates -log of the predictive density circularly convolved with
        the von Mises conditional of phi_0 given the realized amplitude, at
        the realized observation, and averages per block (a column of the
        step-major samples, in step order). The convolution runs over each
        sample's window only; with v = u0 - centre, the exponent
        kappa (cos(v - d) - 1) over the (W,) offsets d and the (N,) samples
        is one (W, 3) @ (3, N) product into one (W, N) buffer: rows
        (cos d, sin d, -1) against columns kappa (cos v, sin v, 1).
        """
        if xi < 0:
            raise DomainError(f"xi must be >= 0, got {xi}")
        if xi == 0.0:
            return LOG_2PI, 0.0
        zr = xi + self.z_test
        kappa = 2.0 * np.abs(zr) * xi
        v = self.theta + np.angle(zr) - self.centre
        d = self.offsets
        t = np.stack((np.cos(d), np.sin(d), -np.ones_like(d)), axis=1) @ (
            kappa * np.stack((np.cos(v), np.sin(v), np.ones_like(v)))
        )
        mix = np.einsum("wn,wn->n", self.window, np.exp(t, out=t))
        if np.any(mix <= 0.0) or not np.all(np.isfinite(mix)):
            raise NumericUnderflowError(
                "predictive/von-Mises mixture underflowed; raise q_levels for this SNR"
            )
        values = -np.log(mix) + np.log(TWO_PI * special.i0e(kappa))
        return mean_se(np.array([block.mean() for block in values.reshape(-1, self.n_blocks).T]))


def _pilot_likelihood(u, grid, snr):
    """p(u | theta_q) = f_phi(u - theta_q; snr), shape u.shape + (Q,), of
    the pilot phases u. The density reads its phase only through the cosine,
    cos(u - theta) = cos u cos theta + sin u sin theta, an outer product. It
    is taken on the first half-turn of the grid only (Q is even), and the
    second reads c(theta + pi) = -c(theta) with the same density branches."""
    half = grid.size // 2
    c = np.empty(u.shape + (2, half))
    np.multiply.outer(np.cos(u), np.cos(grid[:half]), out=c[..., 0, :])
    c[..., 0, :] += np.multiply.outer(np.sin(u), np.sin(grid[:half]))
    np.negative(c[..., 0, :], out=c[..., 1, :])
    branches = _rician_branches(c[..., :1, :], snr)
    return _rician_cos_pdf(c, snr, branches).reshape(u.shape + grid.shape)


def build_predictive_ensemble(
    params, q_levels=200, block_length=2000, n_blocks=4, seed=0, past_window=200
):
    """Run the pilot forward recursion and collect predictive densities.

    Pilots are sent at peak power (s^2 = snr); `_forward_filter` weights by
    the exact phase likelihood p(u_l | theta_l) = f_phi(u_l - theta_l; snr).
    Each block runs `block_length` steps and keeps its states after the
    first `past_window`, the burn-in, which must lie in [MIN_PAST_WINDOW,
    block_length - MIN_KEPT_STEPS]. The blocks draw their own streams and
    are stepped as one (n_blocks, Q) state, a chunk of about ROW_BLOCK_CELLS
    likelihood cells at a time. Every array is step-major, (steps, blocks):
    each kept chunk of states goes straight into its rows of the
    (n - burn, n_blocks, Q) densities, which the ensemble keeps flat, with
    their live window. Nothing here reads params.m: the ensemble is the same
    for every M.
    """
    _check_blocks(q_levels, block_length, n_blocks)
    n, burn = int(block_length), int(past_window)
    if not MIN_PAST_WINDOW <= burn <= n - MIN_KEPT_STEPS:
        raise ConfigurationError(
            f"past_window must be in [{MIN_PAST_WINDOW}, {n - MIN_KEPT_STEPS}], got {past_window}"
        )
    grid, transition = _phase_model(params.sigma_delta, q_levels)
    q = grid.size

    theta, u = np.empty((n, n_blocks)), np.empty((n, n_blocks))
    z_test = np.empty((n, n_blocks), dtype=complex)
    for b in range(n_blocks):
        rng = np.random.default_rng([int(seed), b, 0xE])
        theta[:, b] = wiener_phase(rng, params.sigma_delta, n)
        z_pilot = sample_circular_gaussian(rng, n)
        z_test[:, b] = sample_circular_gaussian(rng, n)
        u[:, b] = np.mod(theta[:, b] + np.angle(1.0 + z_pilot / np.sqrt(params.snr)), TWO_PI)

    predictive = np.empty((n - burn, n_blocks, q))
    state = np.full((n_blocks, q), 1.0 / q) @ transition
    for steps, states in ((u[:burn], None), (u[burn:], predictive)):
        for block in _row_blocks(len(steps), n_blocks * q):
            lik = _pilot_likelihood(steps[block], grid, params.snr)
            _forward_filter(transition, lik, state, None if states is None else states[block])

    samples = (predictive.reshape(-1, q), theta[burn:].ravel(), z_test[burn:].ravel())
    return PredictiveEnsemble(grid, *samples, burn, int(n_blocks))


def adaptive_predictive_ensemble(
    params, q_levels=200, block_length=2000, n_blocks=4, seed=0, past_window=200
):
    """Double the past window until the entropy estimate stabilizes.

    The convergence probe is evaluated at xi = sqrt(snr), the most
    window-sensitive point. Stops once the estimate moves by less than half
    its std error, after at most three doublings, or before a window would
    leave a block fewer than MIN_KEPT_STEPS samples. The pilot recursion
    runs once: a wider window w' drops the first w' - w steps of each block,
    which lead the step-major arrays, so each array becomes a slice of the
    build's (`PredictiveEnsemble._widen`); no data moves and no doubling
    searches the window again.
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
        ensemble._widen(window)
        new_value, new_se = ensemble.cond_entropy(xi_ref)
        moved = abs(new_value - value)
        value = new_value
        if moved < 0.5 * max(new_se, 1e-12):
            break
    return ensemble
