"""Coherent 64-QAM reference: the rate of the package's 64-QAM input when the
receiver knows the phase, computed deterministically.

With H = I, CN(0, 1) noise and the phase known, each antenna carries two
independent PAM axes, each with the levels of `scaled_symbols(snr, m).real`
and real noise of variance 1/2. The information density of a vector symbol
is the sum of its 2m PAM densities i(a, n) = -n^2 - log mean_b exp(-(a + n - b)^2),
so its mean and variance are 2m times the PAM ones. Each PAM moment is a
Gauss-Hermite sum over n (the weight exp(-t^2) / sqrt(pi) is the law of n),
averaged over the equiprobable levels a.
"""

import numpy as np
from scipy import special

from phasecap.channel import qam_constellation

GAUSS_HERMITE_NODES = 200


def coherent_qam64(snr, m):
    """(rate in bits, variance of the information density in bits^2), per
    channel use of m antennas at peak power `snr`."""
    levels = np.unique(qam_constellation(64).scaled_symbols(snr, m).real)
    t, w = np.polynomial.hermite.hermgauss(GAUSS_HERMITE_NODES)
    w = w / np.sqrt(np.pi)
    y = levels[:, None] + t[None, :]  # (levels, nodes): y = a + n
    log_mix = special.logsumexp(-((y[:, :, None] - levels) ** 2), axis=2) - np.log(levels.size)
    density = (-(t**2) - log_mix) / np.log(2.0)
    mean = np.mean(density @ w)
    second = np.mean(density**2 @ w)
    return float(2 * m * mean), float(2 * m * (second - mean**2))
