import math
import os
import tracemalloc
import warnings
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest
from scipy import special
from scipy.interpolate import PchipInterpolator

from phasecap import cli, inforate, mathcore
from phasecap.bounds import upper_bound_U
from phasecap.channel import (
    ChannelParams,
    Constellation,
    psk_constellation,
    qam_constellation,
    simulate,
    wiener_phase,
)
from phasecap.entropy import LOG_2PI, entropy_delta_plus_phase, mean_se, sample_circular_gaussian
from phasecap.errors import ConfigurationError, DomainError, NumericUnderflowError
from phasecap.inforate import (
    LOG_PI,
    MIN_KEPT_STEPS,
    PREDICTIVE_CUT,
    _forward_filter,
    _forward_loglik,
    _mixture_log_rows_dense,
    _mixture_log_rows_separable,
    _phase_model,
    _pilot_likelihood,
    adaptive_predictive_ensemble,
    build_predictive_ensemble,
    qam_rate,
)
from phasecap.mathcore import TWO_PI, _rician_cos_pdf, wrapped_gaussian_entropy

from coherent_qam import coherent_qam64

SIGMA_6DEG = np.deg2rad(6.0)
ROTATED_QAM16 = Constellation(qam_constellation(16).symbols * np.exp(0.3j))
# a product set L x L whose levels are not symmetric (L != -L): not square QAM
SHIFTED_QAM16 = Constellation(qam_constellation(16).symbols + (1.0 + 1.0j))
# a product set whose levels are neither equally spaced nor symmetric, and
# differ between the axes: not square QAM, so its mixture rows sum points
UNEVEN_RE, UNEVEN_IM = np.array([-3.0, -1.0, 0.5, 4.0]), np.array([-2.0, 1.0, 3.0])
UNEVEN_PRODUCT = Constellation((UNEVEN_RE[:, None] + 1j * UNEVEN_IM[None, :]).ravel())


def logsumexp_rows(y, vectors, grid):
    """The mixture rows over an explicit list of input vectors v, shape (S, m):
    scipy's logsumexp over the explicit (n, S) exponent
    2 Re(e^{j theta} y^H v) - |v|^2 of each phase level theta."""
    ip = np.conj(y) @ vectors.T
    hsq = np.sum(np.abs(vectors) ** 2, axis=1)
    rows = [special.logsumexp(2.0 * (np.exp(1j * theta) * ip).real - hsq, axis=1) for theta in grid]
    const = np.log(vectors.shape[0]) + np.sum(np.abs(y) ** 2, axis=1) + y.shape[1] * LOG_PI
    return np.stack(rows, axis=1) - const[:, None]


def separable_rows(y, symbols, grid, m):
    """`_mixture_log_rows_separable` into a fresh (n, Q) array."""
    return _mixture_log_rows_separable(y, symbols, grid, m, np.empty((len(y), grid.size)))


def uniform_start(transition, lik):
    """The uniform state predicted once: the start of a recursion over the
    (n, Q) or (n, B, Q) likelihood rows `lik`."""
    return np.full(lik.shape[1:], 1.0 / transition.shape[0]) @ transition


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
        # each chain's log-likelihood is the sum of its constants, and the
        # pass returns their difference
        _, transition = _phase_model(0.3, 32)
        consts = np.array([[0.5, 2.0], [-1.25, -0.75], [3.0, 1.5]])
        rows = np.repeat(consts[:, :, None], 32, axis=2)
        ratio = sum(consts[:, 0]) - sum(consts[:, 1])
        assert _forward_loglik(transition, rows) == pytest.approx(ratio, abs=1e-12)

    def test_underflow_error(self):
        # the error comes without a RuntimeWarning for the row's -inf - -inf
        _, transition = _phase_model(0.3, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericUnderflowError):
                _forward_loglik(transition, np.full((1, 2, 16), -np.inf))

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
        # Q = 8, n = 5: 32 768 paths per chain
        _, transition = _phase_model(0.4, 8)
        log_rows = np.random.default_rng(3).normal(scale=2.0, size=(5, 2, 8))
        (cond, cond_pred), (mix, mix_pred) = (
            self.path_sums(transition, log_rows[:, c]) for c in range(2)
        )
        assert abs(_forward_loglik(transition, log_rows) - (cond - mix)) < 1e-12
        states, lik = np.empty_like(log_rows), np.exp(log_rows)
        _forward_filter(transition, lik, uniform_start(transition, lik), states)
        assert np.max(np.abs(states - np.stack([cond_pred, mix_pred], axis=1))) < 1e-13

    def test_in_place_rows_equal_the_broadcast_expressions(self):
        # the conditional rows are built a row block at a time into the
        # conditional half of the (n, 2, Q) rows, the mixture rows into the
        # other half, and the pass streams the exps of the broadcast
        # expression below through the filter
        grid, transition = _phase_model(SIGMA_6DEG, 200)
        rng = np.random.default_rng(5)
        y = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        symbols = qam_constellation(64).scaled_symbols(1e3, 2)
        x = symbols[rng.integers(0, 64, (500, 2))]
        ip = np.sum(np.conj(y) * x, axis=1)
        const = -np.sum(np.abs(y) ** 2, axis=1) - np.sum(np.abs(x) ** 2, axis=1) - 2 * LOG_PI
        re = np.cos(grid)[None, :] * ip.real[:, None] - np.sin(grid)[None, :] * ip.imag[:, None]
        rows = np.empty((500, 2, 200))
        inforate._conditional_log_rows(y, x, grid, 2, rows[:, 0])
        assert np.array_equal(rows[:, 0], 2.0 * re + const[:, None])
        _mixture_log_rows_separable(y, symbols, grid, 2, rows[:, 1])
        assert np.array_equal(rows[:, 1], separable_rows(y, symbols, grid, 2))
        peak = np.max(rows, axis=2)
        lik = np.exp(rows - peak[:, :, None])
        norms = _forward_filter(transition, lik, uniform_start(transition, lik))
        cond, mix = np.cumsum(norms + peak, axis=0)[-1]
        assert _forward_loglik(transition, rows) == cond - mix

    @staticmethod
    def qam_block_rows(m, snr_db, n=2000, q=200):
        """One 64-QAM block's (n, 2, Q) conditional and mixture rows, drawn
        as `qam_rate` draws its first block."""
        p = ChannelParams(m, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        grid, transition = _phase_model(p.sigma_delta, q)
        symbols = qam_constellation(64).scaled_symbols(p.snr, m)
        x = symbols[np.random.default_rng([0, 0, 0xA]).integers(0, symbols.size, size=(n, m))]
        y, _ = simulate(p, x, seed=[0, 0, 0xB])
        rows = np.empty((n, 2, q))
        inforate._conditional_log_rows(y, x, grid, m, rows[:, 0])
        _mixture_log_rows_separable(y, symbols, grid, m, rows[:, 1])
        return transition, rows

    @pytest.mark.parametrize("m, snr_db", [(1, 10.0), (2, 20.0), (2, 30.0)])
    def test_row_blocks_equal_one_block(self, m, snr_db, monkeypatch):
        # the exps go a row block at a time, with the (2, Q) state carried
        # from block to block: 3 rows per block (the last ragged) and one
        # block for all 2000 rows give the same ratio, bit for bit
        transition, rows = self.qam_block_rows(m, snr_db)
        calls, run = [], inforate._forward_filter

        def counted(transition, lik, *rest, **kw):
            calls.append(len(lik))
            return run(transition, lik, *rest, **kw)

        monkeypatch.setattr(inforate, "_forward_filter", counted)
        monkeypatch.setattr(mathcore, "ROW_BLOCK_CELLS", 3 * 2 * 200)
        blocked = _forward_loglik(transition, rows)
        assert len(calls) == 667 and set(calls) == {3, 2}
        calls.clear()
        monkeypatch.setattr(mathcore, "ROW_BLOCK_CELLS", 2000 * 2 * 200)
        assert _forward_loglik(transition, rows) == blocked
        assert calls == [2000]

    @pytest.mark.parametrize("m, snr_db", [(1, 10.0), (2, 20.0), (2, 30.0)])
    def test_ratio_equals_two_one_chain_passes(self, m, snr_db):
        # the (2, Q) gemm against two (Q,) gemv chains changes rounding only
        transition, rows = self.qam_block_rows(m, snr_db)
        peak = np.max(rows, axis=2)
        cond, mix = (
            np.cumsum(
                self.per_step_filter(transition, np.exp(rows[:, c] - peak[:, c, None])) + peak[:, c]
            )[-1]
            for c in range(2)
        )
        ratio = _forward_loglik(transition, rows)
        assert abs(ratio - (cond - mix)) <= 1e-12 * abs(cond - mix)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chain", [0, 1], ids=["conditional", "mixture"])
    def test_a_row_without_a_finite_peak_raises(self, chain, monkeypatch):
        # a row of -inf in either chain, in the middle of a block of 100
        # rows streamed 7 at a time, gives a NaN normalizer in its row block
        _, transition = _phase_model(SIGMA_6DEG, 32)
        rows = np.random.default_rng(2).normal(size=(100, 2, 32))
        rows[40, chain] = -np.inf
        monkeypatch.setattr(mathcore, "ROW_BLOCK_CELLS", 7 * 2 * 32)
        message = "^forward-recursion weight underflowed; raise q_levels for this SNR$"
        with pytest.raises(NumericUnderflowError, match=message):
            _forward_loglik(transition, rows)

    def test_stored_states_leave_the_normalizers_unchanged(self):
        _, transition = _phase_model(SIGMA_6DEG, 200)
        lik = np.exp(np.random.default_rng(5).normal(scale=3.0, size=(300, 200)))
        start = uniform_start(transition, lik)
        stored = _forward_filter(transition, lik, start.copy(), np.empty_like(lik))
        assert np.array_equal(stored, _forward_filter(transition, lik, start))

    @staticmethod
    def per_step_filter(transition, lik, states=None):
        """The filter as one (Q,) state stepped row by row, with its check
        inside the loop: the reference for the (n, Q) path."""
        norms = np.empty(len(lik))
        state = np.full(transition.shape[0], 1.0 / transition.shape[0]) @ transition
        v = np.empty_like(state)
        for l, row in enumerate(lik):
            if states is not None:
                states[l] = state
            c = norms[l] = np.multiply(state, row, out=v).sum()
            if not 0.0 < c < np.inf:
                raise NumericUnderflowError("forward-recursion weight underflowed")
            np.dot(np.divide(v, c, out=v), transition, out=state)
        return np.log(norms)

    @pytest.mark.parametrize("scale", [0.1, 3.0, 30.0])
    def test_one_chain_equals_the_per_step_loop(self, scale):
        _, transition = _phase_model(SIGMA_6DEG, 200)
        lik = np.exp(np.random.default_rng(5).normal(scale=scale, size=(2000, 200)))
        states, ref_states = np.empty_like(lik), np.empty_like(lik)
        norms = _forward_filter(transition, lik, uniform_start(transition, lik), states)
        assert np.array_equal(norms, self.per_step_filter(transition, lik, ref_states))
        assert np.array_equal(states, ref_states)

    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    def test_stepped_blocks_match_single_blocks(self, snr_db):
        # one (B, Q) state against B single-chain calls: gemm against gemv
        # changes the rounding only
        snr = 10.0 ** (snr_db / 10.0)
        grid, transition = _phase_model(SIGMA_6DEG, 200)
        u = np.stack([pilot_phases(snr, 1000, seed) for seed in range(4)], axis=1)
        lik = _pilot_likelihood(u, grid, snr)
        states = np.empty_like(lik)
        norms = _forward_filter(transition, lik, uniform_start(transition, lik), states)
        for b in range(4):
            one_states = np.empty_like(lik[:, b])
            one_norms = _forward_filter(
                transition, lik[:, b], uniform_start(transition, lik[:, b]), one_states
            )
            # a log normalizer's error is its normalizer's relative error
            assert np.max(np.abs(norms[:, b] - one_norms)) < 1e-14
            # densities far in the tails at 30 dB are subnormal or 0, where
            # the spacing of doubles is fixed
            normal = one_states >= np.finfo(float).tiny
            err = np.abs(states[:, b] - one_states)
            assert np.max(err[normal] / one_states[normal]) < 1e-14
            assert np.max(err[~normal], initial=0.0) <= np.finfo(float).tiny

    def test_chunks_with_a_carried_state_equal_one_call(self):
        _, transition = _phase_model(SIGMA_6DEG, 64)
        lik = np.exp(np.random.default_rng(8).normal(scale=2.0, size=(300, 3, 64)))
        states, chunked = np.empty_like(lik), np.empty_like(lik)
        norms = _forward_filter(transition, lik, uniform_start(transition, lik), states)
        state = uniform_start(transition, lik)
        parts = [
            _forward_filter(transition, lik[lo : lo + 70], state, chunked[lo : lo + 70])
            for lo in range(0, 300, 70)
        ]
        assert np.array_equal(np.concatenate(parts), norms)
        assert np.array_equal(chunked, states)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "shape, zero", [((50, 32), (20,)), ((50, 3, 32), (20, 1))], ids=["one_chain", "one_of_three"]
    )
    def test_a_zero_row_raises(self, shape, zero):
        # the check runs once, after the steps, with the same error
        _, transition = _phase_model(SIGMA_6DEG, 32)
        lik = np.ones(shape)
        lik[zero] = 0.0
        message = "^forward-recursion weight underflowed; raise q_levels for this SNR$"
        with pytest.raises(NumericUnderflowError, match=message):
            _forward_filter(transition, lik, uniform_start(transition, lik))

    def test_pilot_recursion_underflow_error(self, monkeypatch):
        # a pilot likelihood of 0 everywhere reaches the filter's one check
        monkeypatch.setattr(inforate, "_rician_cos_pdf", lambda c, snr, branches: np.zeros_like(c))
        p = ChannelParams(1, SIGMA_6DEG, 4.0)
        with pytest.raises(NumericUnderflowError, match="forward-recursion weight"):
            build_predictive_ensemble(p, 64, block_length=200, n_blocks=2, seed=0, past_window=100)


def pilot_phases(snr, n, seed=7):
    """One block's pilot phase observations u, drawn as the pilot recursion
    draws them."""
    rng = np.random.default_rng([seed, 0, 0xE])
    theta = wiener_phase(rng, SIGMA_6DEG, n)
    z_pilot = sample_circular_gaussian(rng, n)
    return np.mod(theta + np.angle(1.0 + z_pilot / np.sqrt(snr)), TWO_PI)


class TestPilotLikelihood:
    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    def test_cosine_product_matches_the_wrapped_phase(self, snr_db):
        # reference: the density of the phase difference wrapped onto
        # [-pi, pi), one cosine per cell; the two cosines differ in rounding
        # only, which exp(-a sin^2) amplifies at high SNR
        snr = 10.0 ** (snr_db / 10.0)
        grid, _ = _phase_model(SIGMA_6DEG, 200)
        u = pilot_phases(snr, 2000)
        wrapped = np.mod(u[:, None] - grid[None, :] + np.pi, TWO_PI) - np.pi
        ref = _rician_cos_pdf(np.cos(wrapped), snr)
        lik = _pilot_likelihood(u, grid, snr)
        assert np.max(np.abs(lik - ref) / ref) < 2e-12

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0])
    def test_second_half_turn_is_the_density_at_minus_c(self, snr_db):
        # the first half-turn is the density of its cosines, the second the
        # density of their negatives, bit for bit
        snr = 10.0 ** (snr_db / 10.0)
        grid, _ = _phase_model(SIGMA_6DEG, 200)
        u = np.stack([pilot_phases(snr, 300, seed) for seed in range(3)], axis=1)
        c = np.multiply.outer(np.cos(u), np.cos(grid[:100]))
        c += np.multiply.outer(np.sin(u), np.sin(grid[:100]))
        lik = _pilot_likelihood(u, grid, snr)
        assert lik.shape == (300, 3, 200)
        assert np.array_equal(lik[..., :100], _rician_cos_pdf(c, snr))
        assert np.array_equal(lik[..., 100:], _rician_cos_pdf(-c, snr))

    def test_row_blocks_equal_one_block(self, monkeypatch):
        # the pilot steps go in chunks of ROW_BLOCK_CELLS likelihood cells,
        # 40 steps of 4 x 200 here, with the state carried from chunk to
        # chunk; a burn-in of 150 and 1990 steps end both parts in a ragged
        # chunk (4 + 46 filter calls), and one chunk per part changes no bit
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return _forward_filter(*args)

        monkeypatch.setattr(inforate, "_forward_filter", counted)
        p = ChannelParams(1, SIGMA_6DEG, 100.0)
        chunked = build_predictive_ensemble(p, 200, 1990, 4, 7, 150)
        assert len(calls) == 50 and sum(calls) == 1990
        calls.clear()
        monkeypatch.setattr(mathcore, "ROW_BLOCK_CELLS", 1990 * 4 * 200)
        whole = build_predictive_ensemble(p, 200, 1990, 4, 7, 150)
        assert calls == [150, 1840]
        for name in ("predictive", "theta", "z_test", "window"):
            assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name


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

    def test_coherent_awgn_degenerate_vs_reference(self):
        # with almost no phase noise the recursion learns the random start
        # phase within a few symbols, and the rate is coherent 64-QAM's; the
        # tolerance is 3 SE of a mean of n iid information densities
        snr, block_length, n_blocks = 10**1.5, 2000, 2
        p = ChannelParams(1, 1e-6, snr)
        est = qam_rate(p, qam_constellation(64), 200, block_length, n_blocks, seed=11)
        rate, variance = coherent_qam64(snr, 1)
        tol = 3 * np.sqrt(variance / (n_blocks * block_length))
        assert est.value_bits == pytest.approx(rate, abs=tol)

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
        sep = separable_rows(y, symbols, grid, 2)
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
        # the PAM axes read the first half-turn of Re p; Q = 200 is the
        # figure grid
        p = ChannelParams(m, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        symbols = qam_constellation(order).scaled_symbols(p.snr, m)
        x = symbols[np.random.default_rng(order).integers(0, order, size=(400, m))]
        y, _ = simulate(p, x, seed=[order, m])
        for q_levels in (64, 200):
            grid, _ = _phase_model(SIGMA_6DEG, q_levels)
            factored = separable_rows(y, symbols, grid, m)
            reference = per_antenna_logsumexp_rows(y, symbols, grid)
            assert np.max(np.abs(factored - reference)) < 1e-10, q_levels

    @pytest.mark.parametrize("order", [16, 64])
    @pytest.mark.parametrize("m", [1, 2])
    def test_square_qam_rows_repeat_every_quarter_turn(self, order, m):
        # each antenna adds its PAM table at theta and at theta + pi/2, which
        # a quarter-turn on swaps, so the row is pi/2-periodic; built on one
        # quarter and copied, the four quarters agree bit for bit
        p = ChannelParams(m, SIGMA_6DEG, 100.0)
        symbols = qam_constellation(order).scaled_symbols(p.snr, m)
        x = symbols[np.random.default_rng(order).integers(0, order, size=(300, m))]
        y, _ = simulate(p, x, seed=[order, m, 4])
        for q_levels in (16, 64, 200):
            grid, _ = _phase_model(SIGMA_6DEG, q_levels)
            first, *rest = np.split(separable_rows(y, symbols, grid, m), 4, axis=1)
            for quarter in rest:
                assert np.array_equal(quarter, first), q_levels

    @pytest.mark.parametrize(
        "constellation, widths",
        [
            (qam_constellation(64), [8, 8]),
            (psk_constellation(8), [8, 8]),
            (ROTATED_QAM16, [16, 16]),
            (UNEVEN_PRODUCT, [12, 12]),
            (SHIFTED_QAM16, [16, 16]),
        ],
    )
    def test_square_qam_is_summed_over_its_axes(self, constellation, widths, monkeypatch):
        # square QAM sums the 8 levels of 64-QAM once per antenna, on the
        # first half-turn (Q/2 phases); other sets, the uneven and the shifted
        # product sets among them, sum all their symbols on all Q phases, one
        # call per antenna
        seen = []
        kernel = inforate._add_logsumexp

        def spy(rows, c, points):
            seen.append(points.shape[0])
            assert c[0].shape == (10, 8 if points.shape[1] == 1 else 16)
            return kernel(rows, c, points)

        monkeypatch.setattr(inforate, "_add_logsumexp", spy)
        grid, _ = _phase_model(SIGMA_6DEG, 16)
        symbols = constellation.scaled_symbols(100.0, 2)
        y = np.ones((10, 2), dtype=complex)
        separable_rows(y, symbols, grid, 2)
        assert seen == widths

    @pytest.mark.parametrize(
        "m, constellation",
        # square 64-QAM (its PAM axes) keeps the bare antenna count as its
        # id; PSK-8, rotated and shifted 16-QAM sum points in the plane
        [pytest.param(m, qam_constellation(64), id=f"{m}") for m in (1, 2)]
        + [
            pytest.param(m, c, id=f"{m}-{name}")
            for name, c in (
                ("psk8", psk_constellation(8)),
                ("rotated_qam16", ROTATED_QAM16),
                ("shifted_qam16", SHIFTED_QAM16),
            )
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
        rows = separable_rows(y, symbols, grid, m)
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
        clipped = separable_rows(y, symbols, grid, m)
        monkeypatch.setattr(inforate, "EXP_FLOOR", -np.inf)
        assert np.array_equal(clipped, separable_rows(y, symbols, grid, m))

    @pytest.mark.parametrize(
        "m, constellation",
        [pytest.param(m, qam_constellation(64), id=f"{m}-qam64") for m in (1, 2)]
        + [pytest.param(2, psk_constellation(8), id="2-psk8")]
        + [pytest.param(2, ROTATED_QAM16, id="2-rotated_qam16")],
    )
    def test_row_blocks_equal_one_block(self, m, constellation, monkeypatch):
        # every operation is row-wise, so blocking cannot move a bit; the
        # last of the 3 blocks is ragged, and each block sums its own tables
        calls, add_logsumexp = [], inforate._add_logsumexp

        def counted(rows, *args):
            calls.append(len(rows))
            return add_logsumexp(rows, *args)

        monkeypatch.setattr(inforate, "_add_logsumexp", counted)
        grid, _ = _phase_model(SIGMA_6DEG, 64)
        step = mathcore.ROW_BLOCK_CELLS // grid.size
        p = ChannelParams(m, SIGMA_6DEG, 100.0)
        symbols = constellation.scaled_symbols(p.snr, m)
        x = symbols[np.random.default_rng(m).integers(0, symbols.size, size=(2 * step + 37, m))]
        y, _ = simulate(p, x, seed=[symbols.size, m])
        blocked = separable_rows(y, symbols, grid, m)
        blocked_calls, calls[:] = calls[:], []
        monkeypatch.setattr(mathcore, "ROW_BLOCK_CELLS", len(y) * grid.size)
        assert np.array_equal(blocked, separable_rows(y, symbols, grid, m))
        assert set(blocked_calls) == {step, 37} and set(calls) == {len(y)}
        assert len(blocked_calls) == 3 * len(calls)

    def test_unequally_spaced_product_set(self):
        # a product set that is not square QAM goes through the points path;
        # at this scale its exponents reach far past the range of exp, so the
        # rows are finite only if the running peak comes off every term
        symbols = 30.0 * UNEVEN_PRODUCT.symbols
        grid, _ = _phase_model(SIGMA_6DEG, 32)
        rng = np.random.default_rng(4)
        y = 60.0 * (rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2)))
        first, second = np.meshgrid(symbols, symbols, indexing="ij")
        vectors = np.stack([first.ravel(), second.ravel()], axis=1)
        sep = separable_rows(y, symbols, grid, 2)
        dense = _mixture_log_rows_dense(y, vectors, grid, 2)
        assert np.max(np.abs(sep - dense)) < 1e-10

    def test_peak_memory_is_two_rows_arrays(self):
        # a block holds its (n, 2, Q) conditional and mixture rows, and the
        # passes add only row-block buffers to them (tracemalloc sees numpy's
        # buffers)
        p = ChannelParams(2, SIGMA_6DEG, 1e3)
        tracemalloc.start()
        try:
            qam_rate(p, qam_constellation(64), 200, 1000, 2, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1000 * 200 * 8

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
        # the mixture rows read the grid a quarter turn on
        pytest.param(202, 2, "q_levels must be a multiple of 4", id="q_levels_multiple_of_4"),
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


def test_q_levels_on_the_quarter_turn_accepted():
    p = ChannelParams(1, SIGMA_6DEG, 10.0)
    assert np.isfinite(qam_rate(p, qam_constellation(16), 204, 100, 2).value_bits)
    assert build_predictive_ensemble(p, 204, 200, 2, past_window=100).grid.size == 204


def single_pilot_entropy_oracle(xi, rho, sigma, n_mc=30_000, seed=17):
    """Exact h(Delta + phi0(xi^2) - phi_{-1}(rho) | r): the conditional
    entropy given exactly one past pilot, computed by Fourier convolution of
    the three circular densities (MC only over the Rician amplitude).

    Upper-bounds the full-past conditional entropy and is tight at high SNR.
    """
    n_harm = 300
    nodes = 16384
    u = TWO_PI * np.arange(nodes) / nodes - np.pi
    f_rice = _rician_cos_pdf(np.cos(u), rho)
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
    return mean_se(np.array([block.mean() for block in values.reshape(-1, ens.n_blocks).T]))


def whole_array_live_window(predictive, grid):
    """`_live_window` with one search over the whole (N, Q) array, through
    the flat index of every live cell: the reference for the search by row
    blocks."""
    n, q = predictive.shape
    flat = predictive.ravel()
    peak = predictive.argmax(axis=1)
    row_start = np.arange(n) * q
    at_peak = row_start + peak
    live = np.flatnonzero(predictive > PREDICTIVE_CUT * flat[at_peak][:, None])
    step = (live - at_peak[live // q]) % q
    half = int(np.minimum(step, q - step).max())
    steps = np.arange(min(2 * half + 1, q)) - half
    window = np.empty((steps.size, n))
    for out, j in zip(window, steps):
        np.take(flat, row_start + (peak + j) % q, out=out)
    return grid[peak], TWO_PI / q * steps, window


def two_buffer_cond_entropy(ens, xi):
    """`cond_entropy` with the sin d sin v term as a second (W, N) outer
    product: the reference for the one-buffer sum."""
    zr = xi + ens.z_test
    kappa = 2.0 * np.abs(zr) * xi
    v = ens.theta + np.angle(zr) - ens.centre
    t = np.multiply.outer(np.cos(ens.offsets), np.cos(v))
    t += np.multiply.outer(np.sin(ens.offsets), np.sin(v))
    t -= 1.0
    t *= kappa
    mix = np.einsum("wn,wn->n", ens.window, np.exp(t, out=t))
    values = -np.log(mix) + np.log(TWO_PI * special.i0e(kappa))
    return mean_se(np.array([block.mean() for block in values.reshape(-1, ens.n_blocks).T]))


def two_ensemble_doubling(params, q_levels, block_length, n_blocks, seed, past_window):
    """`adaptive_predictive_ensemble` with each wider ensemble built from row
    slices while the narrower one is still alive: the reference for one
    ensemble at a time."""
    ensemble = build_predictive_ensemble(
        params, q_levels, block_length, n_blocks, seed, past_window
    )
    xi_ref = np.sqrt(params.snr)
    value, _ = ensemble.cond_entropy(xi_ref)
    for _ in range(3):
        window = 2 * ensemble.past_window
        if window + MIN_KEPT_STEPS > block_length:
            break
        rows = np.arange(ensemble.n_samples) // n_blocks >= window - ensemble.past_window
        sliced = {f: getattr(ensemble, f)[rows] for f in ("predictive", "theta", "z_test")}
        wider = replace(ensemble, past_window=window, **sliced)
        new_value, new_se = wider.cond_entropy(xi_ref)
        moved = abs(new_value - value)
        ensemble, value = wider, new_value
        if moved < 0.5 * max(new_se, 1e-12):
            break
    return ensemble


class TestConditionalPhaseEntropy:
    @staticmethod
    def assert_whole_array_window(ens):
        ref = whole_array_live_window(ens.predictive, ens.grid)
        for name, value in zip(("centre", "offsets", "window"), ref):
            assert np.array_equal(getattr(ens, name), value), name

    def test_zero_amplitude_uniform(self):
        p = ChannelParams(1, SIGMA_6DEG, 100.0)
        ens = build_predictive_ensemble(p, 100, block_length=300, n_blocks=2, seed=1, past_window=100)
        value, _ = ens.cond_entropy(0.0)
        assert value == pytest.approx(LOG_2PI, abs=1e-12)

    def test_uniform_increment_limit(self):
        p = ChannelParams(1, 10.0, 100.0)
        ens = build_predictive_ensemble(p, 100, block_length=300, n_blocks=2, seed=1, past_window=100)
        value, se = ens.cond_entropy(5.0)
        # the unconditional sum with a uniform start phase is uniform: log(2 pi)
        assert value == pytest.approx(LOG_2PI, abs=3 * se + 1e-9)

    def test_flat_density_keeps_every_level(self):
        # sigma = 10 rad: every level is live, and with Q even the farthest
        # level is Q/2 steps from the peak on both sides
        p = ChannelParams(1, 10.0, 100.0)
        ens = build_predictive_ensemble(p, 100, block_length=300, n_blocks=2, seed=1, past_window=100)
        assert ens.window.shape == (100, ens.n_samples)
        self.assert_whole_array_window(ens)
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
        # every level outside the window is at most PREDICTIVE_CUT of its row's peak
        outside = ens.predictive.copy()
        peak = ens.predictive.argmax(axis=1)
        for j in range(-(width // 2), width // 2 + 1):
            outside[np.arange(ens.n_samples), (peak + j) % q] = 0.0
        assert np.all(outside <= PREDICTIVE_CUT * ens.predictive.max(axis=1)[:, None])
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
        for name in ("predictive", "theta", "z_test", "centre", "offsets", "window", "reach"):
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

    def test_samples_are_step_major(self):
        # sample i is step burn + i // B of block i % B, so a wider burn-in
        # drops a head of every array
        p = ChannelParams(1, SIGMA_6DEG, 100.0)
        n, blocks, burn = 300, 3, 100
        ens = build_predictive_ensemble(p, 64, n, blocks, 5, burn)
        streams = np.stack(
            [wiener_phase(np.random.default_rng([5, b, 0xE]), SIGMA_6DEG, n) for b in range(blocks)]
        )
        i = np.arange(ens.n_samples)
        assert ens.n_samples == (n - burn) * blocks
        assert np.array_equal(ens.theta, streams[i % blocks, burn + i // blocks])

    def test_widening_moves_no_data(self, monkeypatch):
        # each doubling slices the build's arrays: their buffers keep every
        # value, and the widened ensemble reads from them
        p = ChannelParams(1, SIGMA_6DEG, 50.0)
        names = ("predictive", "theta", "z_test", "centre", "window", "reach")
        built, build = {}, inforate.build_predictive_ensemble

        def spy(*args):
            ens = build(*args)
            built.update({name: (getattr(ens, name), getattr(ens, name).copy()) for name in names})
            return ens

        monkeypatch.setattr(inforate, "build_predictive_ensemble", spy)
        ens = adaptive_predictive_ensemble(p, 100, 600, 2, 9, 150)
        assert ens.past_window == 300
        for name, (array, before) in built.items():
            assert np.array_equal(array, before), name
            assert np.shares_memory(getattr(ens, name), array), name

    @pytest.mark.parametrize("flat_rows, width", [(2, 5), (3, 16)], ids=["narrows", "stays_full"])
    def test_widening_from_the_full_circle_equals_a_fresh_ensemble(self, flat_rows, width):
        # Q = 16, 3 blocks of 8 samples, step-major: the first `flat_rows`
        # steps of each block are flat (their window is all 16 levels), the
        # rest peak with a reach of 2 levels (5 levels: exp(-36) is below
        # PREDICTIVE_CUT). Dropping 2 steps per block drops every flat row,
        # or all but one.
        q, keep, blocks = 16, 8, 3
        rng = np.random.default_rng(4)
        grid = TWO_PI * np.arange(q) / q
        dist = np.minimum(np.arange(q), q - np.arange(q))
        predictive = np.stack([np.roll(np.exp(-4.0 * dist**2), k) for k in rng.integers(0, q, 24)])
        flat = np.arange(blocks * keep) // blocks < flat_rows
        predictive[flat] = 1.0 + 0.1 * rng.random((flat.sum(), q))
        theta, z_test = rng.uniform(0.0, TWO_PI, 24), sample_circular_gaussian(rng, 24)
        ens = inforate.PredictiveEnsemble(grid, predictive.copy(), theta.copy(), z_test.copy(), 100, 3)
        assert ens.window.shape == (q, 24)
        ens._widen(102)
        rows = np.arange(blocks * keep) // blocks >= 2
        fresh = inforate.PredictiveEnsemble(grid, predictive[rows], theta[rows], z_test[rows], 102, 3)
        assert ens.window.shape == (width, 18)
        self.assert_same_ensemble(ens, fresh)

    def test_window_stops_before_a_block_runs_short(self, monkeypatch):
        # window 140 -> 280 in 300-step blocks would keep 20 < 64 samples:
        # the doubling stops, and one recursion of 300 steps per block runs
        # (counted in state-vector steps: the blocks are stepped together)
        p = ChannelParams(1, SIGMA_6DEG, 50.0)
        windows, steps = self.spy_builds(monkeypatch), []
        run = inforate._forward_filter

        def counted(transition, lik, *rest):
            steps.append(math.prod(lik.shape[:-1]))
            return run(transition, lik, *rest)

        monkeypatch.setattr(inforate, "_forward_filter", counted)
        ens = adaptive_predictive_ensemble(p, 100, 300, 2, 9, 140)
        assert windows == [140] and sum(steps) == 600 and ens.past_window == 140
        monkeypatch.undo()
        self.assert_same_ensemble(ens, build_predictive_ensemble(p, 100, 300, 2, 9, 140))

    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    def test_block_search_equals_the_whole_array_search(self, snr_db):
        p = ChannelParams(1, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        self.assert_whole_array_window(build_predictive_ensemble(p, 200, 2000, 4, 7, 200))

    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_one_buffer_equals_two_outer_products(self, snr_db):
        p = ChannelParams(1, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        ens = build_predictive_ensemble(p, 200, 2000, 4, 7, 200)
        # the product sums kappa cos v cos d + kappa sin v sin d - kappa in
        # the BLAS's order, so only rounding moves (at most 1e-14 nats)
        for xi in np.linspace(0.05, 1.5 * np.sqrt(p.snr), 63):
            value, se = ens.cond_entropy(xi)
            ref_value, ref_se = two_buffer_cond_entropy(ens, xi)
            assert abs(value - ref_value) < 1e-13 and abs(se - ref_se) < 1e-13, xi

    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_one_ensemble_at_a_time_equals_two(self, snr_db):
        p = ChannelParams(1, SIGMA_6DEG, 10.0 ** (snr_db / 10.0))
        ens = adaptive_predictive_ensemble(p, 200, 2000, 4, 7, 200)
        assert ens.past_window > 200
        self.assert_same_ensemble(ens, two_ensemble_doubling(p, 200, 2000, 4, 7, 200))

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


def test_figure_budget_u_row_peak_memory():
    # a U row holds one ensemble, which each doubling slices, one chunk of
    # pilot rows and row-block temporaries: about 19.1 MB of numpy buffers
    # at figure budgets
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "fig1.cfg")
    with open(path) as fh:
        config = asdict(cli.parse_config(fh.read()))
    tracemalloc.start()
    try:
        row = cli.compute_row(config, "U", 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["kind"] == "U"
    assert peak < 21.5e6
