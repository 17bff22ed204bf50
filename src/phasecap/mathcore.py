"""Wrapped/circular probability primitives and the Gauss-Legendre quadrature.

Everything here is a pure function of its arguments and module constants.
Entropies are in nats; angles in radians; densities in 1/radian. The Rician
phase density is given as a function of the cosine of the phase
(`_rician_cos_pdf`). `_row_blocks` is the one row-block rule of the
package's blocked passes.
"""

from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError

TWO_PI = 2.0 * np.pi

# Cells per row block of the package's blocked passes (mixture rows, pilot
# likelihood chunks, live-window search, U_s's amplitude average): a pass
# over a block stays in L2.
ROW_BLOCK_CELLS = 2**15


def _row_blocks(n, q):
    """Slices of about ROW_BLOCK_CELLS cells over n rows of Q cells each."""
    step = max(1, ROW_BLOCK_CELLS // q)
    for start in range(0, n, step):
        yield slice(start, start + step)


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
    delta = np.asarray(delta, dtype=float)
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
    delta = np.asarray(delta, dtype=float)
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


def _rician_branches(c, a):
    """`_rician_cos_pdf`'s Bessel-term branches at cos(phi) = |c| > 0 and at
    cos(phi) = -|c| <= 0, split so that every exponent stays <= 0."""
    mag = np.abs(c)
    pos = np.exp(a * (mag * mag - 1.0))  # exp(-a sin^2 phi)
    mag = np.sqrt(a) * mag
    pos *= 1.0 + special.erf(mag)
    return pos, np.exp(-a) * special.erfcx(mag)


def _rician_cos_pdf(c, a, branches=None):
    """Exact density of the phase phi of 1 + z/sqrt(a), z ~ CN(0, 1), as a
    function of c = cos(phi), for c in [-1, 1] (up to rounding) and a >= 0:
    the density reads phi only through its cosine. It is the law of the
    residual phase of a pilot of power `a`, and 1/(2pi) at a = 0.
    `branches`, if given, are `_rician_branches` of |c|, shared by c and -c."""
    pos, neg = _rician_branches(c, a) if branches is None else branches
    term = np.where(c > 0, pos, neg)
    term *= np.sqrt(np.pi * a) * c
    term += np.exp(-a)
    term /= TWO_PI
    # The closed form is > 0 analytically; clip last-ulp negatives/underflow.
    return np.maximum(term, np.finfo(float).tiny, out=term)


# The one Gauss-Legendre rule on [-1, 1]; every quadrature maps it onto its panels.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss_legendre(n_panels, a, b):
    """Composite Gauss-Legendre nodes/weights: the rule on n_panels equal panels of [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


_panel_nodes = lru_cache(maxsize=8)(_gauss_legendre)


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
