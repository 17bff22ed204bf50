"""Differential-entropy and expectation-of-log estimators.

The expected log of the output norm is in closed form (exponential integral
and Kummer functions); the entropy of |xi + z|^2 is a quadrature against its
Bessel density; Monte Carlo is used only for the outer amplitude average of
the one-step conditional entropy, whose draws are memoized for one U_s row
and averaged one row block at a time, and whose kappa tables are a bounded
memo of (sigma, unit) that a sweep clears when it starts. The tables are
cubic Hermite splines in log1p(kappa) whose node slopes are central
differences; their nodes sum the one-step entropy's Fourier series by one
real inverse FFT, with as many harmonics as sigma needs. All values are in
nats.
`mean_se` is the one (mean, standard error) estimator of every Monte Carlo
term in the package, and `BoundRecord` the one result type of every bound
and rate.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ConfigurationError, DomainError, NumericUnderflowError
from .mathcore import TWO_PI, _gauss_legendre, _row_blocks

LOG_2PI = float(np.log(TWO_PI))

# Fewest amplitude draws of the one-step entropy; the sweep config is checked against it.
MIN_N_SAMPLES = 100
# Interpolation intervals per unit of log1p(kappa) in the one-step entropy tables.
NODES_PER_UNIT = 128
# Largest von Mises concentration: scipy's ive returns NaN from just below 2**30 on.
KAPPA_MAX = 2.0**30 - 1.0


def mean_se(samples):
    """(mean, standard error of the mean) of a 1-D array of at least two iid
    samples."""
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(samples.size))


@dataclass(frozen=True)
class BoundRecord:
    """One bound or rate, in bits per channel use, with its standard error.

    `opt_alpha` and `opt_xi` are the duality optimum (None for the closed
    form and the QAM rates); `meta` holds the row's diagnostics, and its
    `n_samples` is the row's Monte Carlo sample count, if it has one.
    """

    value_bits: float
    std_error_bits: float = 0.0
    opt_alpha: float | None = None
    opt_xi: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value_bits):
            raise DomainError(f"non-finite value {self.value_bits}")
        if self.std_error_bits < 0:
            raise DomainError("std_error_bits must be >= 0")


def sample_circular_gaussian(rng, size):
    """iid CN(0, 1) draws (unit total variance, 1/2 per component)."""
    g = rng.standard_normal((2,) + tuple(np.atleast_1d(size)))
    return (g[0] + 1j * g[1]) * np.sqrt(0.5)


def expect_log_noncentral(xi, m):
    """E[log(|xi + z1|^2 + sum_{j=2}^m |z_j|^2)] with z_j iid CN(0, 1).

    The sum is a Poisson(lam = xi^2) mixture of Gamma(m + K, 1) laws, so the
    expectation is E psi(m + K), in closed form the g_m of Lapidoth & Moser
    (2003): log(lam) + E1(lam) + sum_{j=1}^{m-1} 1F1(1; j + 1; -lam) / j.
    Exact digamma value at xi = 0.
    """
    if xi < 0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    m = int(m)
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    lam = float(xi) ** 2
    if lam == 0.0:
        return float(special.digamma(m))
    tail = sum(special.hyp1f1(1.0, j + 1.0, -lam) / j for j in range(1, m))
    return float(np.log(lam) + special.exp1(lam) + tail)


def entropy_abs_sq(xi):
    """Differential entropy of t = |xi + z|^2, z ~ CN(0, 1).

    The density is p(t) = exp(-(t + xi^2)) I0(2 xi sqrt(t)); the entropy is
    integrated in u = sqrt(t), which removes the origin singularity, on one
    fixed rule: 2 panels of 64 Gauss-Legendre nodes on [max(0, xi - 13),
    xi + 13]. It is within 5e-14 nats of the adaptive `Quadrature` for xi up
    to 31.7 (30 dB), and within 2e-12 nats at xi = 15 800 (84 dB).
    """
    if xi < 0:
        raise DomainError(f"xi must be >= 0, got {xi}")

    def integrand(u):
        logp = -((u - xi) ** 2) + np.log(special.i0e(2.0 * xi * u))
        return -2.0 * u * logp * np.exp(logp)

    nodes, weights = _gauss_legendre(2, max(0.0, xi - 13.0), xi + 13.0)
    return float(np.dot(weights, integrand(nodes)))


def _conv_entropies(sigma, kappas):
    """Entropy (nats) of the wrapped Gaussian of std sigma circularly
    convolved with a von Mises of concentration kappa, for an array of kappas.

    Both factor densities are symmetric, so the convolution has the Fourier
    cosine series f(u) = (1/2pi)(1 + 2 sum_k c_k cos(k u)) with
    c_k = exp(-k^2 sigma^2 / 2) * I_k(kappa)/I_0(kappa): `ive` gives r_K =
    I_K/I_{K-1} (0 where I_{K-1} underflows, as at kappa = 0), the stable
    downward recurrence r_k = 1/(2k/kappa + r_{k+1}) the other ratios
    r_k = I_k/I_{k-1}, and I_k/I_0 is their cumulative product. K is the
    first harmonic with exp(-K^2 sigma^2 / 2) <= 1e-18. One real inverse FFT
    sums the series on N = max(512, 2^ceil(log2 4K)) equally spaced nodes
    (within 3e-15 nats of a 2048-node sum at 6-20 degrees); f is even, so
    f log f is summed over nodes 0..N/2 only, the inner ones twice.
    """
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    n_harm = int(np.ceil(np.sqrt(2.0 * 18.0 * np.log(10.0)) / sigma) + 1)
    n_nodes = int(max(512, 2 ** np.ceil(np.log2(4 * n_harm))))
    ratio = np.empty((kappas.size, n_harm))
    with np.errstate(divide="ignore", invalid="ignore"):
        below = special.ive(n_harm - 1, kappas)
        ratio[:, -1] = np.where(below > 0.0, special.ive(n_harm, kappas) / below, 0.0)
        for j in range(n_harm - 1, 0, -1):
            ratio[:, j - 1] = 1.0 / (2.0 * j / kappas + ratio[:, j])
    # complex coefficients: irfft would first copy real ones into a complex array
    coeff = np.zeros((kappas.size, n_nodes // 2 + 1), dtype=complex)
    coeff[:, 0] = 1.0
    coeff[:, 1 : n_harm + 1] = np.exp(-0.5 * (np.arange(1, n_harm + 1) * sigma) ** 2)
    coeff[:, 1 : n_harm + 1] *= np.cumprod(ratio, axis=1)
    f = np.fft.irfft(coeff, n_nodes, norm="forward")[:, : n_nodes // 2 + 1] / TWO_PI
    f = np.maximum(f, 1e-300)
    f *= np.log(f)
    f[:, 1:-1] *= 2.0  # each inner node stands for its mirror image too
    return -(TWO_PI / n_nodes) * f.sum(axis=1)


@lru_cache(maxsize=1)
def _amplitude_draws(n_samples, seed):
    """The read-only CN(0, 1) draws z of the one-step entropy."""
    z = sample_circular_gaussian(np.random.default_rng([int(seed), 0x5E1F]), n_samples)
    z.flags.writeable = False
    return z


@lru_cache(maxsize=32)
def _unit_table(sigma, u):
    """Read-only cubic Hermite coefficients, shape (4, NODES_PER_UNIT), of the
    convolution entropy over t = log1p(kappa) in [u, u + 1]. Each node's slope
    is the central difference of its neighbours, so one node past each end of
    the unit is evaluated too; the entropy is even in kappa, so the node below
    t = 0 reads kappa = |expm1(t)|. Kappas past KAPPA_MAX read KAPPA_MAX."""
    n = NODES_PER_UNIT
    t = u + np.arange(-1, n + 2) / n
    y = _conv_entropies(sigma, np.minimum(np.abs(np.expm1(t)), KAPPA_MAX))
    dk = (y[2:] - y[:-2]) * n / 2
    y = y[1:-1]
    m = np.diff(y) * n
    s = (dk[:-1] + dk[1:] - 2 * m) * n
    c = np.stack((s * n, (m - dk[:-1]) * n - s, dk[:-1], y[:-1]))
    c.flags.writeable = False
    return c


def clear_tables():
    """Forget the memoized draws and kappa tables, so that the next U_s row
    builds every table it reads."""
    _amplitude_draws.cache_clear()
    _unit_table.cache_clear()


def end_row():
    """Forget a finished U_s row's draws; its kappa tables stay memoized."""
    _amplitude_draws.cache_clear()


def entropy_delta_plus_phase(xi, sigma, n_samples=100_000, seed=0):
    """h(Delta + phi0(xi^2) | |xi + z0|) estimated by Monte Carlo over the
    received amplitude.

    For each draw r = |xi + z| the conditional law of phi0 given r is von
    Mises with concentration kappa = 2 r xi, so the inner entropy is the
    exact circular convolution of the wrapped Gaussian of std sigma with
    that von Mises. It is read by index from cubic Hermite tables in
    t = log1p(kappa), one per unit interval of t with NODES_PER_UNIT
    intervals each. At xi = 0 every draw reads the first node,
    `_conv_entropies(sigma, 0)`, which is 4.4e-16 above log(2 pi); the
    mean and the standard error then carry only summation rounding (the
    error is about 1e-17 at some draw counts, not 0). The draws depend only
    on (n_samples, seed) and are memoized until `end_row()`; the tables
    depend only on (sigma, unit) and are memoized, at most 32 of them,
    until `clear_tables()`. The draws are read one
    row block of 8192 at a time (`_row_blocks` over the four coefficient
    rows), each block's values filling its part of one (n_samples,) array,
    so the only temporaries are the size of a block.

    Returns (value, std_error) in nats; deterministic given the arguments.
    Raises NumericUnderflowError when a kappa exceeds KAPPA_MAX.
    """
    if xi < 0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    if sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if n_samples < MIN_N_SAMPLES:
        raise ConfigurationError(f"n_samples must be >= {MIN_N_SAMPLES}, got {n_samples}")

    z = _amplitude_draws(n_samples, seed)
    h = np.empty(n_samples)
    for block in _row_blocks(n_samples, 4):  # four table rows per draw
        kappa = 2.0 * np.abs(xi + z[block]) * xi
        if kappa.max() > KAPPA_MAX:
            raise NumericUnderflowError(f"von Mises kappa {kappa.max():.4g} > {KAPPA_MAX:.0f}")
        t = np.log1p(kappa)
        u_lo = int(t.min())
        c = np.hstack([_unit_table(sigma, u) for u in range(u_lo, int(t.max()) + 1)])
        j = np.floor(NODES_PER_UNIT * t).astype(int) - NODES_PER_UNIT * u_lo
        d = t - (j + NODES_PER_UNIT * u_lo) / NODES_PER_UNIT
        # Horner in place on one gather of the four coefficient rows
        hb, *lower = np.take(c, j, axis=1)
        for ck in lower:
            hb *= d
            hb += ck
        h[block] = hb
    return mean_se(h)
