"""MIMO Wiener phase-noise channel: parameters, samplers, constellations,
LoS geometry and channel-matrix IO.

Model: y_k = e^{j theta_k} H x_k + w_k with w_k ~ CN(0, I_M) and theta a
Wiener phase process with increment std `sigma_delta`, under the per-symbol
peak constraint ||x_k||^2 <= snr. The package computes with H = I: any
unitary H (the LoS geometry at spacing sqrt(lambda R / M)) gives the same
rates, and a general full-rank H enters only through the extreme
eigenvalues of H^H H, which scale the SNR (`singular_value_bounds`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, PeakPowerError, RankError, SchemaError
from .entropy import sample_circular_gaussian
from .mathcore import TWO_PI

SPEED_OF_LIGHT = 2.99792458e8  # m/s


@dataclass(frozen=True)
class ChannelParams:
    """Channel parameterization for H = I, which stands for any unitary H.
    `snr` is the peak power rho in linear scale.
    """

    m: int
    sigma_delta: float
    snr: float

    def __post_init__(self):
        if int(self.m) < 1:
            raise DomainError(f"antenna count must be >= 1, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if not np.isfinite(self.sigma_delta) or self.sigma_delta < 0:
            raise DomainError(f"sigma_delta must be finite and >= 0, got {self.sigma_delta}")
        if not np.isfinite(self.snr) or self.snr <= 0:
            raise DomainError(f"snr must be finite and > 0, got {self.snr}")


def wiener_phase(rng, sigma, n, theta0=None):
    """One length-n trajectory of the wrapped Wiener phase, in [0, 2pi).

    Draws the start uniform on [0, 2pi) (stationary start; a float
    `theta0` forces it instead) and then n - 1 Gaussian increments of std
    `sigma`, both from the caller's generator `rng`.
    """
    start = rng.uniform(0.0, TWO_PI) if theta0 is None else float(theta0)
    steps = sigma * rng.standard_normal(n - 1)
    return np.mod(start + np.concatenate([[0.0], np.cumsum(steps)]), TWO_PI)


def simulate(params, inputs, seed, theta0=None):
    """Run the channel over a block of input vectors.

    Parameters
    ----------
    params : ChannelParams
    inputs : (n, m) complex array; every row must satisfy ||x||^2 <= snr.
    seed : int or sequence of ints for the noise/phase generator.
    theta0 : optional float to force the initial phase.

    Returns
    -------
    (outputs, theta) : ((n, m) complex array, (n,) phase trajectory)
    """
    x = np.asarray(inputs, dtype=complex)
    if x.ndim != 2 or x.shape[1] != params.m:
        raise DomainError(f"inputs must have shape (n, {params.m}), got {x.shape}")
    power = np.sum(np.abs(x) ** 2, axis=1)
    bad = np.flatnonzero(power > params.snr * (1.0 + 1e-12))
    if bad.size:
        k = int(bad[0])
        raise PeakPowerError(k, float(power[k]), float(params.snr))
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    theta = wiener_phase(rng, params.sigma_delta, n, theta0)
    w = sample_circular_gaussian(rng, (n, params.m))
    y = np.exp(1j * theta)[:, None] * x + w
    return y, theta


@dataclass(frozen=True)
class Constellation:
    """A finite complex symbol set, one independent symbol per antenna.

    The per-antenna scale is chosen so the worst-case M-antenna vector meets
    the peak constraint with equality.
    """

    symbols: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.symbols, dtype=complex).ravel()
        if s.size < 1:
            raise ConfigurationError("constellation must contain at least one symbol")
        if np.unique(s).size != s.size:
            raise ConfigurationError("constellation symbols must be distinct")
        object.__setattr__(self, "symbols", s)

    def scaled_symbols(self, snr, m):
        """Per-antenna symbols scaled for an m-antenna vector at peak power snr."""
        return self.symbols * (np.sqrt(snr / m) / np.max(np.abs(self.symbols)))


def qam_constellation(order):
    """Square QAM with Gray-agnostic natural ordering of the lattice."""
    side = int(round(np.sqrt(order)))
    if side * side != order or order < 4:
        raise ConfigurationError(f"QAM order must be a square >= 4, got {order}")
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    re, im = np.meshgrid(levels, levels)
    return Constellation((re + 1j * im).ravel())


def psk_constellation(order):
    if order < 2:
        raise ConfigurationError(f"PSK order must be >= 2, got {order}")
    return Constellation(np.exp(2j * np.pi * np.arange(order) / order))


def constellation_by_name(name):
    """Parse labels like "qam64" or "psk8"."""
    label = name.strip().lower().replace("-", "")
    if label.startswith("qam"):
        return qam_constellation(int(label[3:]))
    if label.startswith("psk"):
        return psk_constellation(int(label[3:]))
    raise ConfigurationError(f"unknown constellation {name!r}")


def los_antenna_spacing(wavelength, range_m, m):
    """Antenna spacing d = sqrt(lambda R / M) that makes the LoS channel
    matrix unitary."""
    if wavelength <= 0 or range_m <= 0 or m < 1:
        raise DomainError("wavelength, range and antenna count must be positive")
    return float(np.sqrt(wavelength * range_m / m))


def wavelength_from_ghz(freq_ghz):
    if freq_ghz <= 0:
        raise DomainError(f"frequency must be > 0, got {freq_ghz}")
    return SPEED_OF_LIGHT / (freq_ghz * 1e9)


def singular_value_bounds(h_matrix):
    """Extreme eigenvalues (lambda_min, lambda_max) of H^H H."""
    h = np.asarray(h_matrix, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DomainError(f"h_matrix must be square, got {h.shape}")
    eigs = np.linalg.eigvalsh(h.conj().T @ h)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min <= (1e-12) ** 2 * lam_max or lam_min <= 0:
        raise RankError("h_matrix is numerically rank deficient")
    return lam_min, lam_max


def load_channel_matrix(path):
    """Read a complex matrix from text: one row per line, finite entries
    like "0.3-0.1j" separated by whitespace."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                row = [complex(tok) for tok in stripped.split()]
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: bad complex entry ({exc})") from exc
            if not np.all(np.isfinite(row)):
                raise SchemaError(f"{path}:{lineno}: non-finite entry in {stripped!r}")
            rows.append(row)
    if not rows:
        raise SchemaError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SchemaError(f"{path}: ragged rows")
    h = np.array(rows, dtype=complex)
    if h.shape[0] != h.shape[1]:
        raise SchemaError(f"{path}: matrix must be square, got {h.shape}")
    return h
