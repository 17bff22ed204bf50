"""Wrapped/circular probability primitives and the Gauss-Legendre quadrature.

Everything here is a pure function of its arguments. Entropies are in nats;
angles in radians; densities in 1/radian.
"""

from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError

TWO_PI = 2.0 * np.pi


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def wrap_truncation_order(sigma):
    """Number of lattice terms L so the first omitted wrapped-Gaussian term
    is below 1e-16 of the peak."""
    return int(np.ceil(8.0 * sigma / TWO_PI)) + 2


def wrapped_gaussian_pdf(delta, sigma):
    """Density of a zero-mean Gaussian with std `sigma` wrapped onto [0, 2pi).

    Parameters
    ----------
    delta : array_like
        Angle(s) in radians; any real value is accepted (the density is
        2pi-periodic).
    sigma : float
        Standard deviation of the unwrapped increment, > 0.

    Returns
    -------
    ndarray or float
        Strictly positive density values.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    delta = _as_float_array(delta)
    order = wrap_truncation_order(sigma)
    ells = np.arange(-order, order + 1)
    shifted = delta[..., None] - TWO_PI * ells
    vals = np.exp(-0.5 * (shifted / sigma) ** 2).sum(axis=-1)
    # floor at the smallest normal float: the density is strictly positive
    # analytically but underflows in the far tail for small sigma
    out = np.maximum(vals / (sigma * np.sqrt(TWO_PI)), np.finfo(float).tiny)
    return out if out.ndim else float(out)


def wrapped_gaussian_cdf(delta, sigma):
    """P(X <= delta) for the wrapped Gaussian restricted to [0, 2pi).

    Used by the transition-matrix builder and by distribution tests.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    delta = _as_float_array(delta)
    order = wrap_truncation_order(sigma)
    ells = np.arange(-order, order + 1)
    hi = special.ndtr((delta[..., None] - TWO_PI * ells) / sigma)
    lo = special.ndtr((-TWO_PI * ells) / sigma)
    out = (hi - lo).sum(axis=-1)
    return out if out.ndim else float(out)


def wrapped_gaussian_entropy(sigma):
    """Differential entropy (nats) of the wrapped Gaussian on [0, 2pi).

    Always <= log(2pi); approaches 0.5*log(2*pi*e*sigma^2) for small sigma
    and log(2pi) for large sigma.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")

    def neg_flogf(d):
        f = wrapped_gaussian_pdf(d, sigma)
        return -f * np.log(f)

    return DEFAULT_QUADRATURE.integrate(neg_flogf, 0.0, TWO_PI)


def rician_phase_pdf(phi, a):
    """Exact density of the phase of 1 + z/sqrt(a), z ~ CN(0, 1).

    This is the marginal law of the residual phase noise when estimating a
    phase sample from a pilot of power `a`. For a = 0 it degenerates to the
    uniform density 1/(2pi).

    Parameters
    ----------
    phi : array_like
        Phase(s) in radians, interpreted on [-pi, pi] (the density is
        2pi-periodic so any real value works).
    a : float
        Pilot power (linear SNR), >= 0.
    """
    if a < 0:
        raise DomainError(f"a must be >= 0, got {a}")
    phi = _as_float_array(phi)
    c = np.cos(phi)
    root_a = np.sqrt(a)
    sin_sq = 1.0 - c * c
    # Split on the sign of cos(phi) so every exponent stays <= 0.
    pos = np.exp(-a * sin_sq) * (1.0 + special.erf(root_a * c))
    neg = np.exp(-a) * special.erfcx(-root_a * np.minimum(c, 0.0))
    bessel_term = np.sqrt(np.pi * a) * c * np.where(c > 0, pos, neg)
    # The closed form is > 0 analytically; clip last-ulp negatives/underflow.
    out = np.maximum((np.exp(-a) + bessel_term) / TWO_PI, np.finfo(float).tiny)
    return out if out.ndim else float(out)


# The one Gauss-Legendre rule on [-1, 1]; every quadrature maps it onto its panels.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


@lru_cache(maxsize=8)
def _panel_nodes(n_panels, a, b):
    """Composite Gauss-Legendre nodes/weights: the rule on n_panels equal panels of [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


class Quadrature:
    """Deterministic adaptive composite Gauss-Legendre rule.

    A fixed 2048-node rule (32 panels x 64 nodes) is evaluated first;
    panels are doubled only while two successive refinements disagree
    beyond `rel_tol`, up to `max_panels`.
    """

    rel_tol = 1e-9
    base_panels = 32
    max_panels = 4096

    def integrate(self, f, a, b):
        """Integrate vectorized `f` over the finite interval [a, b]."""
        a = float(a)
        b = float(b)
        if not b > a:
            raise DomainError(f"empty integration interval [{a}, {b}]")
        n = self.base_panels
        nodes, weights = _panel_nodes(n, a, b)
        result = float(np.dot(weights, f(nodes)))
        while n < self.max_panels:
            n *= 2
            nodes, weights = _panel_nodes(n, a, b)
            refined = float(np.dot(weights, f(nodes)))
            if abs(refined - result) <= self.rel_tol * max(abs(refined), 1e-300):
                return refined
            result = refined
        return result


DEFAULT_QUADRATURE = Quadrature()
