"""Capacity bounds and asymptotics for the peak-constrained Wiener
phase-noise MIMO channel with unitary H.

All internal arithmetic is in nats; `BoundRecord` values are in bits per
channel use (the reporting unit).
"""

import numpy as np
from scipy.special import gammaln

from .entropy import (
    LN2, LOG_2PI, BoundRecord, end_row, entropy_abs_sq, entropy_delta_plus_phase,
    expect_log_noncentral,
)
from .errors import DomainError, OptimizationError
from .inforate import adaptive_predictive_ensemble
from .mathcore import wrapped_gaussian_entropy


def d_alpha(alpha, m):
    """Duality constant log Gamma(alpha) - log Gamma(m) - m + 1."""
    if alpha <= 0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    return gammaln(alpha) - gammaln(m) - m + 1.0


def _golden_min(f, lo, hi, abs_tol):
    """Deterministic golden-section minimizer on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(GOLDEN_MAX_ITER):
        if (b - a) <= abs_tol:
            return best_x, best_f
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        if f1 < best_f:
            best_x, best_f = x1, f1
        if f2 < best_f:
            best_x, best_f = x2, f2
    raise OptimizationError(
        f"golden section did not reach tol {abs_tol} in {GOLDEN_MAX_ITER} iterations"
    )


# Golden tolerance in log alpha, the cap on search rounds, and the gap (nats)
# under which two lines at alpha* tie, so a refined xi no longer counts.
ALPHA_TOL, MAX_ROUNDS, XI_TIE_NATS = 1e-11, 8, 1e-9
# Iterations of one golden search (in alpha or in xi) before it gives up.
GOLDEN_MAX_ITER = 400
# The alpha bracket of the search: [ALPHA_MIN, ALPHA_MAX_PER_ANTENNA * m].
ALPHA_MIN, ALPHA_MAX_PER_ANTENNA = 1e-3, 10.0


class _DualityOptimizer:
    """min over alpha of the duality prefix plus max over xi of g(alpha, xi).

    For fixed xi, g is a line in alpha, A - alpha B, with A = m e1 - e2 - h_c
    and B = e1 - (xi^2 + m) / (rho + m). The line of each xi (e1 in closed
    form, one quadrature and the conditional entropy) is cached, so the Monte
    Carlo noise is frozen over the whole search (common random numbers). The
    objective, the prefix plus the max of the lines of every xi so far, is
    convex in alpha (the prefix has second derivative psi'(alpha) - 1/alpha
    > 0), so it has one minimum in log alpha. `cond_entropy(xi)` returns (value_nats,
    std_error_nats) of the conditional-entropy term; its std error is the bound's.
    The max over xi reads a 16-point grid on [0, sqrt(rho)] and refines every
    local maximum of it, so a second peak between grid points is not missed; a
    grid end is searched toward only if the line inside it climbs. `xi_tol` is
    both that end probe's offset and the golden tolerance in xi.
    """

    def __init__(self, params, cond_entropy):
        self.cond_entropy = cond_entropy
        self.rho = params.snr
        self.m = params.m
        self.root = np.sqrt(self.rho)
        self.grid = np.linspace(0.0, self.root, 16)
        self.xi_tol = max(self.root * 1e-4, 1e-12)
        self._terms = {}

    def terms(self, xi):
        """The line of xi, (A, B, std error of A), in nats and cached per xi."""
        xi = float(xi)
        hit = self._terms.get(xi)
        if hit is None:
            h_cond, se = self.cond_entropy(xi)
            e1 = expect_log_noncentral(xi, self.m)
            a = self.m * e1 - entropy_abs_sq(xi) - h_cond
            hit = self._terms[xi] = (a, e1 - (xi * xi + self.m) / (self.rho + self.m), se)
        return hit

    def inner_max(self, alpha):
        """(max, argmax) of A - alpha B over xi, the best of the grid's local
        maxima, each golden-searched between its grid neighbours; a grid end
        whose line the xi at xi_tol inside it does not beat is kept as is."""
        a, b, _ = np.array([self.terms(x) for x in self.grid]).T
        g = a - alpha * b

        def neg_g(x):
            a_x, b_x, _ = self.terms(x)
            return alpha * b_x - a_x

        last = self.grid.size - 1
        padded = np.concatenate(([-np.inf], g, [-np.inf]))
        peaks = []
        for i in np.flatnonzero((g >= padded[:-2]) & (g >= padded[2:])):
            inward = self.grid[i] + (self.xi_tol if i == 0 else -self.xi_tol)
            if i in (0, last) and -neg_g(inward) <= g[i]:
                peaks.append((g[i], float(self.grid[i])))
            else:
                lo, hi = self.grid[max(i - 1, 0)], self.grid[min(i + 1, last)]
                x_ref, neg = _golden_min(neg_g, lo, hi, self.xi_tol)
                peaks.append((-neg, x_ref))
        return max(peaks, key=lambda peak: peak[0])

    def objective(self, alpha):
        prefix = alpha * np.log((self.rho + self.m) / alpha) + d_alpha(alpha, self.m)
        return prefix + LOG_2PI + np.max(self._lines[0] - alpha * self._lines[1])

    def minimize(self):
        """Golden search in log alpha, then xi refined at alpha*, until no refined
        xi beats the envelope at alpha* by more than XI_TIE_NATS; the result is
        the minimum over alpha of the lines of every xi evaluated."""
        t_lo, t_hi = np.log(ALPHA_MIN), np.log(ALPHA_MAX_PER_ANTENNA * self.m)

        def alpha_search():
            self._lines = np.array(list(self._terms.values())).T
            t, f = _golden_min(lambda t: self.objective(np.exp(t)), t_lo, t_hi, ALPHA_TOL)
            return t, f, float(np.exp(t))

        for x in self.grid:
            self.terms(x)
        for _ in range(MAX_ROUNDS):
            t_star, f_star, alpha_star = alpha_search()
            envelope = np.max(self._lines[0] - alpha_star * self._lines[1])
            if self.inner_max(alpha_star)[0] <= envelope + XI_TIE_NATS:
                break
        else:
            raise OptimizationError(f"refined xi above the envelope after {MAX_ROUNDS} rounds")
        if len(self._terms) > self._lines.shape[1]:  # the last refinement added xi
            t_star, f_star, alpha_star = alpha_search()
        xi = np.array(list(self._terms))
        vals = self._lines[0] - alpha_star * self._lines[1]
        i = int(np.argmax(vals))
        # the runner-up: the best line more than one grid step (sqrt(rho)/15) from xi*
        j = int(np.argmax(np.where(np.abs(xi - xi[i]) > self.grid[1], vals, -np.inf)))
        diagnostics = {
            "xi_evals": xi.size,
            "alpha_at_edge": bool(min(t_star - t_lo, t_hi - t_star) <= ALPHA_TOL),
            "xi_tied": bool(vals[i] - vals[j] <= XI_TIE_NATS),
            "xi_runner_up": float(xi[j]),
        }
        return float(f_star), float(self._lines[2][i]), alpha_star, float(xi[i]), diagnostics


def _check_params(params):
    if params.sigma_delta <= 0:
        raise DomainError("the duality bounds require sigma_delta > 0")


def _duality_record(params, cond_entropy, meta):
    """Minimize the duality bound and report it in bits."""
    value, se, alpha, xi, diagnostics = _DualityOptimizer(params, cond_entropy).minimize()
    return BoundRecord(value / LN2, se / LN2, alpha, xi, {**meta, **diagnostics})


def upper_bound_U(
    params,
    q_levels=200,
    block_length=2000,
    n_blocks=4,
    past_window=200,
    seed=0,
):
    """The capacity upper bound with the full-memory conditional entropy.

    One pilot recursion per call gives the predictive-phase ensemble (each
    doubled past window is a slice of it), and one envelope pass of the
    duality optimizer shares it across every xi of the (alpha, xi) search.
    """
    _check_params(params)
    ensemble = adaptive_predictive_ensemble(
        params, q_levels, block_length, n_blocks, seed, past_window
    )
    meta = {
        "past_window": ensemble.past_window,
        "predictive_width": ensemble.window.shape[0],
        "n_samples": ensemble.n_samples,
        "q_levels": int(q_levels),
        "seed": int(seed),
    }
    return _duality_record(params, ensemble.cond_entropy, meta)


def upper_bound_Us(params, n_samples=100_000, seed=0):
    """Simplified upper bound: the memory term is the one-step entropy
    h(Delta + phi_0(xi^2) | |xi + z_0|), no forward recursion involved.
    Every xi of the row shares one amplitude draw and the kappa tables. The
    draws are dropped when the row ends; the tables, a pure function of
    (sigma, unit), stay memoized for later rows (`entropy.clear_tables`)."""
    _check_params(params)
    meta = {"n_samples": int(n_samples), "seed": int(seed)}
    try:
        return _duality_record(
            params,
            lambda xi: entropy_delta_plus_phase(xi, params.sigma_delta, n_samples, seed),
            meta,
        )
    finally:
        end_row()


def memoryless_plus_correction(params):
    """Memoryless uniform-phase duality bound plus the SNR-independent
    memory correction log(2pi) - h(Delta). Fully deterministic."""
    _check_params(params)
    h_delta = wrapped_gaussian_entropy(params.sigma_delta)
    meta = {"h_delta_nats": h_delta}
    return _duality_record(params, lambda xi: (h_delta, 0.0), meta)


def asymptotic_capacity_nats(m, sigma_delta, snr):
    """High-SNR capacity expansion, in nats."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if snr <= 0:
        raise DomainError(f"snr must be > 0, got {snr}")
    if sigma_delta <= 0:
        raise DomainError("asymptotic capacity requires sigma_delta > 0")
    half = m - 0.5
    return (
        half * np.log(snr)
        - np.log(half)
        - gammaln(m)
        + 0.5 * np.log(np.pi)
        - half
        - wrapped_gaussian_entropy(sigma_delta)
    )


def asymptotic_capacity(params):
    """High-SNR closed-form capacity expression as a BoundRecord (bits)."""
    value = asymptotic_capacity_nats(params.m, params.sigma_delta, params.snr)
    return BoundRecord(float(value) / LN2)


def avg_peak_gap(m):
    """High-SNR capacity loss (nats) of the peak constraint relative to an
    average-power constraint with the same SNR."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    half = m - 0.5
    return float(gammaln(half) - (m - 1.5) * np.log(1.0 / half) + half)
