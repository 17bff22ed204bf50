import math
import warnings
from functools import partial

import numpy as np
import pytest
from scipy import special
from scipy.interpolate import PchipInterpolator

from phasecap import inforate
from phasecap.bounds import upper_bound_U
from phasecap.channel import (
    ChannelParams,
    Constellation,
    psk_constellation,
    qam_constellation,
    simulate,
)
from phasecap.entropy import LOG_2PI, entropy_delta_plus_phase, mean_se, sample_circular_gaussian
from phasecap.errors import ConfigurationError, DomainError, NumericUnderflowError
from phasecap.inforate import (
    LOG_PI,
    _forward_filter,
    _forward_loglik,
    _mixture_log_rows_dense,
    _mixture_log_rows_separable,
    _phase_model,
    adaptive_predictive_ensemble,
    build_predictive_ensemble,
    qam_rate,
)
from phasecap.mathcore import TWO_PI, rician_phase_pdf, wrapped_gaussian_entropy

SIGMA_6DEG = np.deg2rad(6.0)
ROTATED_QAM16 = Constellation(qam_constellation(16).symbols * np.exp(0.3j))


def logsumexp_rows(y, vectors, grid):
    """The mixture rows over an explicit list of input vectors v, shape (S, m):
    scipy's logsumexp over the explicit (n, S) exponent
    2 Re(e^{j theta} y^H v) - |v|^2 of each phase level theta."""
    ip = np.conj(y) @ vectors.T
    hsq = np.sum(np.abs(vectors) ** 2, axis=1)
    rows = [special.logsumexp(2.0 * (np.exp(1j * theta) * ip).real - hsq, axis=1) for theta in grid]
    const = np.log(vectors.shape[0]) + np.sum(np.abs(y) ** 2, axis=1) + y.shape[1] * LOG_PI
    return np.stack(rows, axis=1) - const[:, None]


def per_antenna_logsumexp_rows(y, symbols, grid):
    """The same rows summed over the full symbol set of each antenna in turn."""
    return sum(logsumexp_rows(y[:, [i]], symbols[:, None], grid) for i in range(y.shape[1]))


class TestPhaseQuantizer:
    def test_rows_stochastic(self):
        _, transition = _phase_model(SIGMA_6DEG, 200)
        assert np.max(np.abs(transition.sum(axis=1) - 1.0)) < 1e-12

    def test_circulant(self):
        _, transition = _phase_model(0.4, 64)
        for i in [1, 17, 63]:
            assert np.allclose(transition[i], np.roll(transition[0], i), atol=1e-15)

    def test_grid(self):
        grid, _ = _phase_model(0.4, 100)
        assert grid[0] == 0.0
        assert grid.size == 100
        assert np.allclose(np.diff(grid), TWO_PI / 100)

    def test_transition_mass_matches_wrapped_increment(self):
        # cell mass around zero should match the wrapped-Gaussian CDF over
        # one cell, by construction
        _, transition = _phase_model(0.25, 128)
        from phasecap.mathcore import wrapped_gaussian_cdf

        w = TWO_PI / 128
        expected = wrapped_gaussian_cdf(w / 2, 0.25) - wrapped_gaussian_cdf(-w / 2, 0.25)
        assert transition[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_requires_positive_sigma(self):
        with pytest.raises(DomainError):
            _phase_model(0.0, 64)


class TestForwardRecursion:
    def test_constant_rows_accumulate_exactly(self):
        _, transition = _phase_model(0.3, 32)
        consts = [0.5, -1.25, 3.0]
        rows = [np.full(32, c) for c in consts]
        assert _forward_loglik(transition, rows) == pytest.approx(sum(consts), abs=1e-12)

    def test_underflow_error(self):
        # the error comes without a RuntimeWarning for the row's -inf - -inf
        _, transition = _phase_model(0.3, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericUnderflowError):
                _forward_loglik(transition, [np.full(16, -np.inf)])

    @staticmethod
    def path_sums(transition, log_rows):
        """log p(y^n) and the predictive p(theta_l | y^{l-1}) of each step l,
        as sums over all Q^n state paths of the chain that starts uniform."""
        n, q = log_rows.shape
        paths = np.indices((q,) * n).reshape(n, -1)  # (n, Q^n), one column per path
        log_w = np.full(paths.shape[1], -np.log(q))
        predictive = np.empty((n, q))
        for l in range(n):
            if l:
                log_w += np.log(transition[paths[l - 1], paths[l]])
            w = np.exp(log_w - log_w.max())
            # fsum rounds each sum over the 32 768 paths once
            predictive[l] = [math.fsum(w[paths[l] == k]) for k in range(q)]
            predictive[l] /= math.fsum(w)
            log_w += log_rows[l, paths[l]]
        return special.logsumexp(log_w), predictive

    def test_filter_equals_the_sum_over_state_paths(self):
        # Q = 8, n = 5: 32 768 paths
        _, transition = _phase_model(0.4, 8)
        log_rows = np.random.default_rng(3).normal(scale=2.0, size=(5, 8))
        log_lik, predictive = self.path_sums(transition, log_rows)
        assert abs(_forward_loglik(transition, log_rows) - log_lik) < 1e-12
        states = np.empty_like(log_rows)
        _forward_filter(transition, np.exp(log_rows), states)
        assert np.max(np.abs(states - predictive)) < 1e-13

    def test_stored_states_leave_the_normalizers_unchanged(self):
        _, transition = _phase_model(SIGMA_6DEG, 200)
        lik = np.exp(np.random.default_rng(5).normal(scale=3.0, size=(300, 200)))
        stored = _forward_filter(transition, lik, np.empty_like(lik))
        assert np.array_equal(stored, _forward_filter(transition, lik))

    def test_pilot_recursion_underflow_error(self, monkeypatch):
        # a pilot likelihood of 0 everywhere reaches the filter's one check
        monkeypatch.setattr(inforate, "rician_phase_pdf", lambda x, snr: np.zeros_like(x))
        p = ChannelParams(1, SIGMA_6DEG, 4.0)
        with pytest.raises(NumericUnderflowError, match="forward-recursion weight"):
            build_predictive_ensemble(p, 64, block_length=200, n_blocks=2, seed=0, past_window=100)


class TestQamRate:
    def test_psk_under_uniform_phase_is_zero(self):
        p = ChannelParams(1, 10.0, 10.0)
        est = qam_rate(p, psk_constellation(8), 64, block_length=400, n_blocks=2, seed=5)
        assert abs(est.value_bits) <= 3 * est.std_error_bits + 1e-9

    def test_single_symbol_constellation_exactly_zero(self):
        p = ChannelParams(1, 0.3, 10.0)
        one = Constellation(np.array([1.0 + 0.5j]))
        est = qam_rate(p, one, 32, block_length=200, n_blocks=2, seed=1)
        assert est.value_bits == 0.0
        assert est.std_error_bits == 0.0

    def test_coherent_awgn_degenerate_vs_mc_oracle(self):
        snr = 10**1.5
        p = ChannelParams(1, 1e-6, snr)
        est = qam_rate(
            p, qam_constellation(64), 200, block_length=2000, n_blocks=2, seed=11, theta0=0.0
        )
        symbols = qam_constellation(64).scaled_symbols(snr, 1)
        rng = np.random.default_rng(123)
        n = 200_000
        x = symbols[rng.integers(0, 64, n)]
        w = sample_circular_gaussian(rng, n)
        y = x + w
        d2 = np.abs(y[:, None] - symbols[None, :]) ** 2
        peak = (-d2).max(axis=1)
        lmix = np.log(np.exp(-d2 - peak[:, None]).mean(axis=1)) + peak
        vals = (-np.abs(w) ** 2 - lmix) / np.log(2.0)
        combined = 3 * np.hypot(est.std_error_bits, vals.std() / np.sqrt(n))
        assert est.value_bits == pytest.approx(vals.mean(), abs=combined)

    def test_monotone_in_snr(self):
        rates = []
        for snr_db in [10.0, 14.0, 18.0]:
            p = ChannelParams(1, SIGMA_6DEG, 10 ** (snr_db / 10))
            rates.append(
                qam_rate(p, qam_constellation(16), 128, block_length=500, n_blocks=2, seed=3)
            )
        for lo, hi in zip(rates, rates[1:]):
            slack = 3 * np.hypot(lo.std_error_bits, hi.std_error_bits)
            assert hi.value_bits >= lo.value_bits - slack

    def test_rate_within_signaling_limits(self):
        p = ChannelParams(2, SIGMA_6DEG, 100.0)
        est = qam_rate(p, qam_constellation(16), 64, block_length=300, n_blocks=2, seed=8)
        assert est.value_bits >= -3 * est.std_error_bits
        assert est.value_bits <= 2 * 4.0 + 3 * est.std_error_bits

    def test_quantizer_doubling_stability(self):
        for snr_db in [15.0, 25.0]:
            p = ChannelParams(1, SIGMA_6DEG, 10 ** (snr_db / 10))
            vals = []
            for levels in (200, 400):
                vals.append(
                    qam_rate(
                        p, qam_constellation(64), levels, block_length=2000, n_blocks=2, seed=7
                    ).value_bits
                )
            assert abs(vals[1] - vals[0]) < 0.02

    def test_separable_equals_dense_enumeration(self):
        # the dense path sums the 256 input vectors as points in R^4 in one
        # kernel call, the separable path makes two 4-level calls per antenna
        # (the I and Q axes of 16-QAM); scipy checks the dense rows on their own
        grid, _ = _phase_model(SIGMA_6DEG, 48)
        symbols = qam_constellation(16).scaled_symbols(30.0, 2)
        rng = np.random.default_rng(0)
        y = rng.standard_normal((700, 2)) + 1j * rng.standard_normal((700, 2))
        sep = _mixture_log_rows_separable(y, symbols, grid, 2)
        # every one of the 16^2 input vectors, listed explicitly
        first, second = np.meshgrid(symbols, symbols, indexing="ij")
        vectors = np.stack([first.ravel(), second.ravel()], axis=1)
        dense = _mixture_log_rows_dense(y, vectors, grid, 2)
        assert np.max(np.abs(sep - dense)) < 1e-10
        assert np.max(np.abs(dense - logsumexp_rows(y, vectors, grid))) < 1e-10

    @pytest.mark.parametrize("order", [16, 64])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_factored_equals_unfactored_rows(self, order, m, snr_db):
        p = ChannelParams(m, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        grid, _ = _phase_model(SIGMA_6DEG, 64)
        symbols = qam_constellation(order).scaled_symbols(p.snr, m)
        x = symbols[np.random.default_rng(order).integers(0, order, size=(400, m))]
        y, _ = simulate(p, x, seed=[order, m])
        factored = _mixture_log_rows_separable(y, symbols, grid, m)
        assert np.max(np.abs(factored - per_antenna_logsumexp_rows(y, symbols, grid))) < 1e-10

    @pytest.mark.parametrize(
        "constellation, widths",
        [
            (qam_constellation(64), [8, 8, 8, 8]),
            (psk_constellation(8), [8, 8]),
            (ROTATED_QAM16, [16, 16]),
        ],
    )
    def test_square_qam_is_summed_over_its_axes(self, constellation, widths, monkeypatch):
        # square QAM sums the 8 levels of each PAM axis, two calls per
        # antenna; other sets sum all their symbols, one call per antenna
        seen = []
        kernel = inforate._add_logsumexp

        def spy(rows, c, points):
            seen.append(points.shape[0])
            return kernel(rows, c, points)

        monkeypatch.setattr(inforate, "_add_logsumexp", spy)
        grid, _ = _phase_model(SIGMA_6DEG, 16)
        symbols = constellation.scaled_symbols(100.0, 2)
        y = np.ones((10, 2), dtype=complex)
        _mixture_log_rows_separable(y, symbols, grid, 2)
        assert seen == widths

    @pytest.mark.parametrize(
        "m, constellation",
        # square 64-QAM (its PAM axes) keeps the bare antenna count as its
        # id; PSK-8 and rotated 16-QAM sum points in the plane
        [pytest.param(m, qam_constellation(64), id=f"{m}") for m in (1, 2)]
        + [
            pytest.param(m, c, id=f"{m}-{name}")
            for name, c in (("psk8", psk_constellation(8)), ("rotated_qam16", ROTATED_QAM16))
            for m in (1, 2)
        ],
    )
    @pytest.mark.parametrize("snr_db", [50.0, 60.0])
    def test_projection_rows_at_high_snr(self, m, constellation, snr_db):
        # |c| reaches about sqrt(snr) here, so a wrong peak would overflow or
        # underflow the exps. Both sums cancel terms as large as `scale`, so
        # they agree to a few of its ulps, not to 1e-10: at 60 dB they are
        # 7e-10 apart where `scale` reaches 4e6, 2e-16 of it
        p = ChannelParams(m, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        grid, _ = _phase_model(SIGMA_6DEG, 64)
        symbols = constellation.scaled_symbols(p.snr, m)
        x = symbols[np.random.default_rng(m).integers(0, symbols.size, size=(400, m))]
        y, _ = simulate(p, x, seed=[symbols.size, m])
        rows = _mixture_log_rows_separable(y, symbols, grid, m)
        assert np.all(np.isfinite(rows))
        scale = np.sum((np.abs(y) + np.abs(symbols).max()) ** 2, axis=1)[:, None]
        reference = per_antenna_logsumexp_rows(y, symbols, grid)
        assert np.all(np.abs(rows - reference) <= 1e-10 + 1e-14 * scale)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("snr_db", [30.0, 60.0])
    def test_clipped_exponents_leave_the_rows_unchanged(self, m, snr_db, monkeypatch):
        # a clipped exp adds at most e^-700 to a sum of at least 1, below half
        # an ulp of it, so the rows equal those of an unclipped kernel exactly
        p = ChannelParams(m, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        grid, _ = _phase_model(SIGMA_6DEG, 64)
        symbols = qam_constellation(64).scaled_symbols(p.snr, m)
        x = symbols[np.random.default_rng(m).integers(0, symbols.size, size=(400, m))]
        y, _ = simulate(p, x, seed=[symbols.size, m])
        # the exponents of the PAM-axis sums do reach below the floor
        levels = np.unique(symbols.real)[:, None, None]
        deepest = min(
            np.min(term - term.max(axis=0))
            for term in (2.0 * levels * c - levels**2 for c in inforate._projections(y, grid))
        )
        assert deepest < inforate.EXP_FLOOR
        clipped = _mixture_log_rows_separable(y, symbols, grid, m)
        monkeypatch.setattr(inforate, "EXP_FLOOR", -np.inf)
        assert np.array_equal(clipped, _mixture_log_rows_separable(y, symbols, grid, m))

    @pytest.mark.parametrize(
        "m, constellation",
        [pytest.param(m, qam_constellation(64), id=f"{m}-qam64") for m in (1, 2)]
        + [pytest.param(2, psk_constellation(8), id="2-psk8")]
        + [pytest.param(2, ROTATED_QAM16, id="2-rotated_qam16")],
    )
    def test_row_blocks_equal_one_block(self, m, constellation, monkeypatch):
        # every operation is row-wise, so blocking cannot move a bit; the
        # last block is ragged
        grid, _ = _phase_model(SIGMA_6DEG, 64)
        step = inforate.MIXTURE_BLOCK_CELLS // grid.size
        p = ChannelParams(m, SIGMA_6DEG, 100.0)
        symbols = constellation.scaled_symbols(p.snr, m)
        x = symbols[np.random.default_rng(m).integers(0, symbols.size, size=(2 * step + 37, m))]
        y, _ = simulate(p, x, seed=[symbols.size, m])
        blocked = _mixture_log_rows_separable(y, symbols, grid, m)
        monkeypatch.setattr(inforate, "MIXTURE_BLOCK_CELLS", len(y) * grid.size)
        assert np.array_equal(blocked, _mixture_log_rows_separable(y, symbols, grid, m))

    def test_unequally_spaced_product_set(self):
        # a product set whose levels are not equally spaced: the peak must
        # be the nearest level's term. Rounding c on the mean spacing picks a
        # farther level for some c, and at this scale that level's peak
        # leaves the nearest level's exp above the float range
        re, im = np.array([-3.0, -1.0, 0.5, 4.0]), np.array([-2.0, 1.0, 3.0])
        symbols = 30.0 * (re[:, None] + 1j * im[None, :]).ravel()
        grid, _ = _phase_model(SIGMA_6DEG, 32)
        rng = np.random.default_rng(4)
        y = 60.0 * (rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2)))
        first, second = np.meshgrid(symbols, symbols, indexing="ij")
        vectors = np.stack([first.ravel(), second.ravel()], axis=1)
        sep = _mixture_log_rows_separable(y, symbols, grid, 2)
        dense = _mixture_log_rows_dense(y, vectors, grid, 2)
        assert np.max(np.abs(sep - dense)) < 1e-10

    def test_mixture_size_is_the_number_summed(self):
        qam16 = qam_constellation(16)
        # the separable rows sum all 16^4 input vectors exactly
        est = qam_rate(ChannelParams(4, SIGMA_6DEG, 10.0), qam16, 32, 100, 2, seed=2)
        assert est.meta == {"mixture_size": 16**4, "n_samples": 200}

    def test_short_block_rejected(self):
        p = ChannelParams(1, SIGMA_6DEG, 10.0)
        with pytest.raises(ConfigurationError):
            qam_rate(p, qam_constellation(16), 64, block_length=50, n_blocks=2, seed=0)


@pytest.mark.parametrize(
    "q_levels, n_blocks, message",
    [
        pytest.param(7, 2, "q_levels must be >= 8", id="q_levels"),
        # one block would report a standard error of 0
        pytest.param(64, 1, "n_blocks must be >= 2", id="n_blocks"),
    ],
)
def test_recursion_budget_below_minimum_rejected(q_levels, n_blocks, message):
    p = ChannelParams(1, SIGMA_6DEG, 10.0)
    for recursion in (
        partial(qam_rate, p, qam_constellation(16)),
        partial(build_predictive_ensemble, p),
        partial(adaptive_predictive_ensemble, p),
        partial(upper_bound_U, p),
    ):
        with pytest.raises(ConfigurationError, match=message):
            recursion(q_levels, 200, n_blocks)


def single_pilot_entropy_oracle(xi, rho, sigma, n_mc=30_000, seed=17):
    """Exact h(Delta + phi0(xi^2) - phi_{-1}(rho) | r): the conditional
    entropy given exactly one past pilot, computed by Fourier convolution of
    the three circular densities (MC only over the Rician amplitude).

    Upper-bounds the full-past conditional entropy and is tight at high SNR.
    """
    n_harm = 300
    nodes = 16384
    u = TWO_PI * np.arange(nodes) / nodes - np.pi
    f_rice = rician_phase_pdf(u, rho)
    k = np.arange(1, n_harm + 1)
    rice_coeff = (f_rice[None, :] * np.cos(k[:, None] * u[None, :])).sum(axis=1) * (
        TWO_PI / nodes
    )
    wg_coeff = np.exp(-0.5 * (k * sigma) ** 2)
    rng = np.random.default_rng(seed)
    z = sample_circular_gaussian(rng, n_mc)
    kappa = 2.0 * np.abs(xi + z) * xi
    t = np.linspace(np.log1p(kappa.min()), np.log1p(kappa.max()), 129)
    kk = np.expm1(t)
    vm_coeff = special.ive(k[None, :], kk[:, None]) / special.ive(0, kk)[:, None]
    coeff = vm_coeff * (wg_coeff * rice_coeff)[None, :]
    grid_n = 8192
    ug = TWO_PI * np.arange(grid_n) / grid_n
    cos_mat = np.cos(k[:, None] * ug[None, :])
    f = (1.0 + 2.0 * coeff @ cos_mat) / TWO_PI
    f = np.maximum(f, 1e-300)
    h = -(TWO_PI / grid_n) * np.sum(f * np.log(f), axis=1)
    vals = PchipInterpolator(t, h)(np.log1p(kappa))
    return float(vals.mean())


def full_grid_cond_entropy(ens, xi):
    """`cond_entropy` summed over all Q levels of every sample's predictive
    density, with `cos(u0 - grid)` taken directly: the reference for the
    windowed sum."""
    zr = xi + ens.z_test
    kappa = 2.0 * np.abs(zr) * xi
    delta = (ens.theta + np.angle(zr))[:, None] - ens.grid[None, :]
    mix = np.sum(ens.predictive * np.exp(kappa[:, None] * (np.cos(delta) - 1.0)), axis=1)
    values = np.log(TWO_PI * special.ive(0, kappa)) - np.log(mix)
    return mean_se(np.array([block.mean() for block in np.split(values, ens.n_blocks)]))


class TestConditionalPhaseEntropy:
    def test_zero_amplitude_uniform(self):
        p = ChannelParams(1, SIGMA_6DEG, 100.0)
        ens = build_predictive_ensemble(p, 100, block_length=300, n_blocks=2, seed=1, past_window=100)
        value, _ = ens.cond_entropy(0.0)
        assert value == pytest.approx(LOG_2PI, abs=1e-12)

    def test_uniform_increment_limit(self):
        p = ChannelParams(1, 10.0, 100.0)
        ens = build_predictive_ensemble(p, 100, block_length=300, n_blocks=2, seed=1, past_window=100)
        value, se = ens.cond_entropy(5.0)
        # the unconditional sum with uniform theta0 is uniform: log(2 pi)
        assert value == pytest.approx(LOG_2PI, abs=3 * se + 1e-9)

    def test_flat_density_keeps_every_level(self):
        # sigma = 10 rad: every level is live, and with Q even the farthest
        # level is Q/2 steps from the peak on both sides
        p = ChannelParams(1, 10.0, 100.0)
        ens = build_predictive_ensemble(p, 100, block_length=300, n_blocks=2, seed=1, past_window=100)
        assert ens.window.shape == (100, ens.n_samples)
        for xi in (1.0, 5.0):
            assert ens.cond_entropy(xi) == pytest.approx(full_grid_cond_entropy(ens, xi), abs=1e-10)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    def test_window_matches_the_full_grid(self, m, snr_db):
        p = ChannelParams(m, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        q = 200
        ens = build_predictive_ensemble(p, q, block_length=600, n_blocks=2, seed=m, past_window=100)
        width = ens.window.shape[0]
        assert width % 2 == 1 and width < q
        # every level outside the window is below 1e-18 of its row's peak
        outside = ens.predictive.copy()
        peak = ens.predictive.argmax(axis=1)
        for j in range(-(width // 2), width // 2 + 1):
            outside[np.arange(ens.n_samples), (peak + j) % q] = 0.0
        assert np.all(outside <= 1e-18 * ens.predictive.max(axis=1)[:, None])
        peak_amplitude = np.sqrt(p.snr)
        for xi in (0.3, 1.0, 0.5 * peak_amplitude, peak_amplitude, 2.0 * peak_amplitude):
            value, se = ens.cond_entropy(xi)
            ref_value, ref_se = full_grid_cond_entropy(ens, xi)
            assert abs(value - ref_value) < 1e-10
            assert abs(se - ref_se) < 1e-10

    def test_full_past_at_most_one_step_entropy(self):
        # conditioning on the noisy past cannot be more informative than
        # perfect knowledge of theta_{-1}: value >= h(Delta + phi0 | r)
        p = ChannelParams(1, SIGMA_6DEG, 100.0)
        ens = build_predictive_ensemble(p, 200, block_length=1200, n_blocks=4, seed=3)
        for xi in [3.0, 10.0]:
            value, se = ens.cond_entropy(xi)
            simple, simple_se = entropy_delta_plus_phase(xi, SIGMA_6DEG, 50_000, seed=3)
            assert value >= simple - 3 * np.hypot(se, simple_se)

    def test_single_pilot_fourier_oracle(self):
        rho = 100.0
        p = ChannelParams(1, SIGMA_6DEG, rho)
        ens = build_predictive_ensemble(p, 200, block_length=2000, n_blocks=4, seed=3)
        xi = np.sqrt(rho)
        value, se = ens.cond_entropy(xi)
        oracle = single_pilot_entropy_oracle(xi, rho, SIGMA_6DEG)
        # full past conditions on more than one pilot: value <= oracle up to
        # Monte Carlo error and the documented quantization slack
        assert value <= oracle + 3 * se + 0.02
        assert value == pytest.approx(oracle, abs=0.06)

    def test_monotone_nonincreasing_in_xi(self):
        p = ChannelParams(1, SIGMA_6DEG, 100.0)
        ens = build_predictive_ensemble(p, 200, block_length=1000, n_blocks=4, seed=5)
        results = [ens.cond_entropy(xi) for xi in [0.0, 1.0, 3.0, 10.0]]
        for (lo_v, lo_se), (hi_v, hi_se) in zip(results[1:], results[:-1]):
            assert lo_v <= hi_v + 3 * np.hypot(lo_se, hi_se) + 1e-12

    def test_bounded_by_increment_entropy_and_uniform(self):
        p = ChannelParams(1, SIGMA_6DEG, 100.0)
        ens = build_predictive_ensemble(p, 200, block_length=800, n_blocks=2, seed=6)
        h_delta = wrapped_gaussian_entropy(SIGMA_6DEG)
        for xi in [0.0, 2.0, 10.0]:
            value, se = ens.cond_entropy(xi)
            assert value <= LOG_2PI + 1e-9
            assert value >= h_delta - 0.05 - 3 * se  # 0.05 = quantization slack

    def test_bitwise_reproducible(self):
        p = ChannelParams(1, SIGMA_6DEG, 50.0)
        a = adaptive_predictive_ensemble(p, 100, block_length=400, n_blocks=2, seed=9)
        b = adaptive_predictive_ensemble(p, 100, block_length=400, n_blocks=2, seed=9)
        assert a.past_window == b.past_window
        assert a.cond_entropy(3.0) == b.cond_entropy(3.0)

    @staticmethod
    def spy_builds(monkeypatch):
        windows = []
        build = inforate.build_predictive_ensemble

        def spy(*args):
            windows.append(args[-1])
            return build(*args)

        monkeypatch.setattr(inforate, "build_predictive_ensemble", spy)
        return windows

    @staticmethod
    def assert_same_ensemble(a, b):
        assert a.past_window == b.past_window
        for name in ("predictive", "theta", "z_test", "centre", "offsets", "window"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert getattr(a, name).dtype == getattr(b, name).dtype, name
        for xi in (0.0, 2.0, 10.0):
            assert a.cond_entropy(xi) == b.cond_entropy(xi)

    def test_one_pilot_recursion_at_figure_budgets(self, monkeypatch):
        # block_length 2000, 4 blocks, 200 levels, window 200: every doubled
        # window (400, 800, 1600) is a slice of the first recursion
        p = ChannelParams(1, SIGMA_6DEG, 100.0)
        windows = self.spy_builds(monkeypatch)
        ens = adaptive_predictive_ensemble(p, 200, 2000, 4, 11, 200)
        assert windows == [200]
        assert ens.past_window >= 400
        monkeypatch.undo()
        self.assert_same_ensemble(ens, build_predictive_ensemble(p, 200, 2000, 4, 11, ens.past_window))

    def test_trimmed_ensemble_equals_a_fresh_build(self):
        p = ChannelParams(1, SIGMA_6DEG, 50.0)
        ens = adaptive_predictive_ensemble(p, 100, 600, 2, 9, 150)
        assert ens.past_window == 300  # the next doubling, 600, is the whole block
        self.assert_same_ensemble(ens, build_predictive_ensemble(p, 100, 600, 2, 9, 300))

    def test_trimmed_ensemble_narrows_its_window(self, monkeypatch):
        # window 100 -> 400 at 10 dB: the trimmed rows need fewer live levels
        # than all of the first recursion's, and the trimmed ensemble reads
        # the same levels as a fresh build of those rows
        p = ChannelParams(1, SIGMA_6DEG, 10.0)
        windows = self.spy_builds(monkeypatch)
        ens = adaptive_predictive_ensemble(p, 100, 600, 2, 0, 100)
        assert windows == [100] and ens.past_window == 400
        monkeypatch.undo()
        first = build_predictive_ensemble(p, 100, 600, 2, 0, 100)
        assert ens.window.shape[0] < first.window.shape[0]
        self.assert_same_ensemble(ens, build_predictive_ensemble(p, 100, 600, 2, 0, 400))

    def test_window_stops_before_a_block_runs_short(self, monkeypatch):
        # window 140 -> 280 in 300-step blocks would keep 20 < 64 samples:
        # the doubling stops, and one recursion of 300 steps per block runs
        p = ChannelParams(1, SIGMA_6DEG, 50.0)
        windows, steps = self.spy_builds(monkeypatch), []
        run = inforate._forward_filter

        def counted(transition, lik, states):
            steps.append(len(lik))
            return run(transition, lik, states)

        monkeypatch.setattr(inforate, "_forward_filter", counted)
        ens = adaptive_predictive_ensemble(p, 100, 300, 2, 9, 140)
        assert windows == [140] and steps == [300, 300] and ens.past_window == 140
        monkeypatch.undo()
        self.assert_same_ensemble(ens, build_predictive_ensemble(p, 100, 300, 2, 9, 140))

    @pytest.mark.parametrize("block_length, past_window", [(300, 99), (300, 237), (200, 200)])
    def test_past_window_out_of_range_rejected(self, block_length, past_window):
        p = ChannelParams(1, SIGMA_6DEG, 50.0)
        for build in (build_predictive_ensemble, adaptive_predictive_ensemble):
            with pytest.raises(ConfigurationError, match="past_window must be in"):
                build(p, 64, block_length, 2, 0, past_window)

    def test_ensemble_is_shared_across_antenna_counts(self):
        # the pilot recursion never reads params.m, and the row seed ignores
        # it: the M=1 and M=2 U rows of one SNR share their ensemble
        one, two = (
            adaptive_predictive_ensemble(ChannelParams(m, SIGMA_6DEG, 50.0), 100, 600, 2, 9, 150)
            for m in (1, 2)
        )
        self.assert_same_ensemble(one, two)

    def test_xi_domain(self):
        p = ChannelParams(1, SIGMA_6DEG, 4.0)
        ens = build_predictive_ensemble(p, 64, block_length=200, n_blocks=2, seed=0, past_window=100)
        with pytest.raises(DomainError):
            ens.cond_entropy(-1.0)

    def test_short_block_rejected(self):
        p = ChannelParams(1, SIGMA_6DEG, 4.0)
        with pytest.raises(ConfigurationError):
            build_predictive_ensemble(p, 64, block_length=50, n_blocks=2, seed=0)
