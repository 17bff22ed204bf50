import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize, special

from phasecap import bounds, cli, entropy
from phasecap.bounds import (
    LN2,
    _DualityOptimizer,
    asymptotic_capacity,
    asymptotic_capacity_nats,
    avg_peak_gap,
    d_alpha,
    memoryless_plus_correction,
    upper_bound_U,
    upper_bound_Us,
)
from phasecap.channel import ChannelParams
from phasecap.cli import derive_seed
from phasecap.entropy import LOG_2PI, BoundRecord, entropy_abs_sq, expect_log_noncentral
from phasecap.errors import DomainError, NumericUnderflowError, OptimizationError

SIGMA_6DEG = np.deg2rad(6.0)
# The master seed of the committed figure rows and of the benchmark rows.
ACCEPTANCE_SEED = 20260809


class TestDualityParams:
    def test_d_alpha_identities(self):
        # alpha = M gives d = 1 - M; M = 1, alpha = 1 gives 0
        for m in [1, 2, 4]:
            assert d_alpha(float(m), m) == pytest.approx(1.0 - m, abs=1e-12)
        assert d_alpha(1.0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_fields_recomputable(self):
        assert d_alpha(0.7, 2) == pytest.approx(
            math.lgamma(0.7) - math.lgamma(2.0) - 1.0, abs=1e-12
        )

    def test_alpha_positive(self):
        with pytest.raises(DomainError):
            d_alpha(0.0, 1)
        with pytest.raises(DomainError):
            d_alpha(-1.0, 1)


class TestGAlpha:
    """The amplitude-dependent part g(alpha, xi) = A - alpha B of the duality
    objective, read from the cached line (A, B, se) of xi."""

    @staticmethod
    def g(opt, alpha, xi):
        a, b, _ = opt.terms(xi)
        return a - alpha * b

    @pytest.mark.parametrize("m", [1, 2])
    def test_trivial_value_at_alpha_m_xi_zero(self, m):
        params = ChannelParams(m, SIGMA_6DEG, 40.0)
        opt = _DualityOptimizer(params, lambda xi: (LOG_2PI, 0.0))
        expected = m * m / (40.0 + m) - 1.0 - LOG_2PI
        assert self.g(opt, float(m), 0.0) == pytest.approx(expected, abs=1e-9)
        assert opt.terms(0.0)[2] == 0.0

    def test_linear_shift_in_conditional_term(self):
        params = ChannelParams(1, SIGMA_6DEG, 25.0)
        base = self.g(_DualityOptimizer(params, lambda xi: (0.4, 0.0)), 0.8, 2.0)
        shifted = self.g(_DualityOptimizer(params, lambda xi: (0.4 + 0.125, 0.0)), 0.8, 2.0)
        assert base - shifted == pytest.approx(0.125, abs=1e-12)

    def test_deterministic_parts_match_direct_reassembly(self):
        m, alpha, rho = 1, 0.5, 100.0
        xi = np.sqrt(rho)
        params = ChannelParams(m, SIGMA_6DEG, rho)
        value = self.g(_DualityOptimizer(params, lambda x: (0.0, 0.0)), alpha, xi)
        direct = (
            (m - alpha) * expect_log_noncentral(xi, m)
            + alpha * (xi**2 + m) / (rho + m)
            - entropy_abs_sq(xi)
        )
        assert value == pytest.approx(direct, abs=1e-6)

    def test_domain_checks(self):
        # the duality bounds need a phase-noise increment: sigma_delta > 0
        params = ChannelParams(1, 0.0, 4.0)
        for bound in (upper_bound_U, upper_bound_Us, memoryless_plus_correction):
            with pytest.raises(DomainError, match="sigma_delta > 0"):
                bound(params)


class TestAsymptoticCapacity:
    def test_slope_identity(self):
        for m in [1, 2, 3]:
            lo = asymptotic_capacity_nats(m, SIGMA_6DEG, 50.0)
            hi = asymptotic_capacity_nats(m, SIGMA_6DEG, 500.0)
            assert hi - lo == pytest.approx((m - 0.5) * np.log(10.0), abs=1e-12)

    def test_value_m1_16db(self):
        # frozen: formula with quadrature h(Delta); the small-sigma Gaussian
        # entropy approximation agrees to ~1e-12 at 6 degrees
        nats = asymptotic_capacity_nats(1, SIGMA_6DEG, 10**1.6)
        assert nats == pytest.approx(3.4451092, abs=1e-3)
        rec = asymptotic_capacity(ChannelParams(1, SIGMA_6DEG, 10**1.6))
        assert rec.value_bits == pytest.approx(4.9703, abs=2e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_capacity_nats(1, 0.0, 10.0)
        with pytest.raises(DomainError):
            asymptotic_capacity_nats(0, SIGMA_6DEG, 10.0)


class TestAvgPeakGap:
    def test_m1(self):
        expected = math.lgamma(0.5) + 0.5 * math.log(2.0) + 0.5
        assert avg_peak_gap(1) == pytest.approx(expected, abs=1e-12)
        assert avg_peak_gap(1) == pytest.approx(1.4189385, abs=1e-6)

    def test_m2(self):
        expected = math.lgamma(1.5) + 0.5 * math.log(1.5) + 1.5
        assert avg_peak_gap(2) == pytest.approx(expected, abs=1e-12)
        assert avg_peak_gap(2) == pytest.approx(1.5819503, abs=1e-6)

    def test_finite_positive_sweep(self):
        for m in range(1, 9):
            gap = avg_peak_gap(m)
            assert np.isfinite(gap) and gap > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            avg_peak_gap(0)


def gamma_output_excess_bits(m):
    """Closed-form limit of memoryless_plus_corr - asymptotic: the Gamma-output
    duality bound at alpha = a = M - 1/2 minus the asymptote, in bits."""
    a = m - 0.5
    nats = (
        -a * math.log(a) + 2 * a + math.lgamma(a) - m + 1 + math.log(2 * math.pi)
        - 0.5 * math.log(4 * math.pi) - 0.5 + math.log(a) - 0.5 * math.log(math.pi)
    )
    return nats / LN2


class TestHighSnrExcess:
    """The README's claim that the Gamma-output bound stays 1.05 (M=1) and
    1.70 (M=2) bits above the asymptote at high SNR."""

    def test_closed_form_values(self):
        assert gamma_output_excess_bits(1) == pytest.approx(1.0471, abs=1e-4)
        assert gamma_output_excess_bits(2) == pytest.approx(1.6973, abs=1e-4)

    @pytest.mark.parametrize("m", [1, 2])
    def test_numerical_gap_approaches_limit_from_below(self, m):
        limit = gamma_output_excess_bits(m)
        gaps = []
        for snr_db in (40.0, 80.0):
            params = ChannelParams(m, SIGMA_6DEG, 10 ** (snr_db / 10))
            mem = memoryless_plus_correction(params).value_bits
            gaps.append(mem - asymptotic_capacity(params).value_bits)
        assert gaps[0] < gaps[1] < limit
        assert limit - gaps[1] < 0.02


class TestBoundRecord:
    def test_finite_validation(self):
        with pytest.raises(DomainError):
            BoundRecord(float("nan"))
        with pytest.raises(DomainError):
            BoundRecord(1.0, std_error_bits=-0.1)


SMALL_BUDGET = dict(block_length=600, n_blocks=2, past_window=150, seed=31)


@pytest.fixture(scope="module")
def records():
    params = ChannelParams(1, SIGMA_6DEG, 10**1.7)
    u = upper_bound_U(params, q_levels=200, **SMALL_BUDGET)
    us = upper_bound_Us(params, n_samples=30_000, seed=31)
    mem = memoryless_plus_correction(params)
    return params, u, us, mem


class TestUpperBounds:

    def test_ordering_u_us_memoryless(self, records):
        _, u, us, mem = records
        slack = 3 * np.hypot(u.std_error_bits, us.std_error_bits)
        assert u.value_bits <= us.value_bits + slack
        assert us.value_bits <= mem.value_bits + 3 * us.std_error_bits

    def test_records_well_formed(self, records):
        _, u, us, mem = records
        for rec in (u, us, mem):
            assert np.isfinite(rec.value_bits)
            assert rec.opt_alpha > 0
            assert 0 <= rec.opt_xi <= np.sqrt(10**1.7) * (1 + 1e-9)
        assert 0 < u.meta["predictive_width"] < u.meta["q_levels"]

    def test_alpha_bracket_reparameterization_invariance(self, records, monkeypatch):
        params, u, _, _ = records
        monkeypatch.setattr(bounds, "ALPHA_MIN", 3e-3)
        monkeypatch.setattr(bounds, "ALPHA_MAX_PER_ANTENNA", 7.0)
        alt = upper_bound_U(params, q_levels=200, **SMALL_BUDGET)
        assert alt.value_bits == pytest.approx(u.value_bits, abs=1e-9)

    def test_more_antennas_higher_simplified_bound(self):
        rho = 10**1.5
        one = upper_bound_Us(ChannelParams(1, SIGMA_6DEG, rho), n_samples=20_000, seed=7)
        two = upper_bound_Us(ChannelParams(2, SIGMA_6DEG, rho), n_samples=20_000, seed=7)
        assert two.value_bits > one.value_bits

    def test_uniform_increment_collapse(self):
        # sigma = 10 rad: the memory correction vanishes and U_s equals the
        # memoryless-plus-correction bound
        params = ChannelParams(1, 10.0, 10**1.5)
        us = upper_bound_Us(params, n_samples=5_000, seed=3)
        mem = memoryless_plus_correction(params)
        assert us.value_bits == pytest.approx(mem.value_bits, abs=1e-9)


US_SWEEP = """
[channel]
antennas = 1
sigma_delta_degrees = 6.0
[sweep]
start_db = 20
stop_db = 30
step_db = 10
kinds = U_s
[mc]
n_samples = 2000
[run]
master_seed = 7
parallelism = 1
[output]
csv = {csv}
cache_dir = {cache}
"""


class TestOneStepTablesPerSweep:
    @staticmethod
    def memo_sizes():
        """(draws, kappa tables) memoized."""
        return (
            entropy._amplitude_draws.cache_info().currsize,
            entropy._unit_table.cache_info().currsize,
        )

    @staticmethod
    def units_built(calls):
        """The unit of each table built, from the kappas of its nodes."""
        return sorted(int(np.rint(np.log1p(kappas[0]))) for kappas in calls)

    def test_draws_dropped_and_tables_kept_when_the_row_returns_or_raises(self):
        entropy.clear_tables()
        upper_bound_Us(ChannelParams(1, SIGMA_6DEG, 100.0), n_samples=2000, seed=5)
        draws, tables = self.memo_sizes()
        assert draws == 0 and tables > 0
        # at 90 dB kappa = 2 r xi passes the Bessel range at the largest xi
        with pytest.raises(NumericUnderflowError):
            upper_bound_Us(ChannelParams(1, SIGMA_6DEG, 1e9), n_samples=1000, seed=5)
        draws, more_tables = self.memo_sizes()
        assert draws == 0 and more_tables > tables

    def test_each_unit_table_is_built_once_per_sweep(self, tmp_path, monkeypatch):
        # a sweep starts with no tables, its two U_s rows share theirs, and
        # they stay after it; the next sweep starts with none again
        entropy.entropy_delta_plus_phase(31.0, SIGMA_6DEG, 2000, 5)
        assert self.memo_sizes()[1] > 0
        config = cli.parse_config(US_SWEEP.format(csv=tmp_path / "us.csv", cache=tmp_path / "c"))
        calls, done = [], []
        conv = entropy._conv_entropies

        def spy(sigma, kappas):
            calls.append(np.array(kappas))
            return conv(sigma, kappas)

        monkeypatch.setattr(entropy, "_conv_entropies", spy)
        cli.run_sweep(config, progress=lambda kind, snr, row: done.append((snr, row)))
        # xi runs up to sqrt(rho) = 31.6 at 30 dB and r = |xi + z| below 35,
        # so t = log1p(2 r xi) < 8: units 0-7, each built once
        assert self.memo_sizes() == (0, 8)
        assert self.units_built(calls) == list(range(8))
        assert all(kappas.size == entropy.NODES_PER_UNIT + 3 for kappas in calls)
        assert [snr for snr, _ in done] == [20.0, 30.0]
        calls.clear()
        cli.run_sweep(dataclasses.replace(config, cache_dir=str(tmp_path / "c2")))
        assert self.units_built(calls) == list(range(8))
        monkeypatch.undo()
        for snr, warm in done:
            entropy.clear_tables()
            cold = cli.compute_row(dataclasses.asdict(config), "U_s", snr)
            for col in ("value_bits", "std_error_bits", "opt_alpha", "opt_xi", "seed"):
                assert warm[col] == cold[col], (snr, col)


class TestConstantModulusStructure:
    def test_restricted_duality_bound_tight_above_zero(self):
        # with |s| = sqrt(snr) fixed (PSK-like), the memoryless mutual
        # information is exactly zero for M = 1; the duality value restricted
        # to xi = sqrt(snr) must upper-bound it, staying small at its best
        # alpha, so the full bound collapses to (almost) the pure memory term
        rho, m = 100.0, 1
        xi = np.sqrt(rho)
        e1 = expect_log_noncentral(xi, m)
        e2 = entropy_abs_sq(xi)

        def restricted(alpha):
            prefix = alpha * np.log((rho + m) / alpha) + d_alpha(alpha, m)
            return prefix + (m - alpha) * e1 + alpha * (xi**2 + m) / (rho + m) - e2

        alphas = np.exp(np.linspace(np.log(0.1), np.log(400.0), 4000))
        best = min(restricted(a) for a in alphas)
        assert best >= -1e-9
        assert best < 0.5


class TestOptimizerInternals:
    def test_inner_max_at_least_grid_max(self):
        params = ChannelParams(1, SIGMA_6DEG, 50.0)
        opt = _DualityOptimizer(params, lambda xi: (LOG_2PI, 0.0))
        g_max, xi_star = opt.inner_max(0.9)
        a, b, _ = np.array([opt.terms(x) for x in opt.grid]).T
        # the max is the cached line of its argmax; the golden search in xi
        # never evaluates the ends of its bracket, so when it runs next to an
        # end it may fall short of the grid max, by less than the tie under
        # which minimize counts a refined xi as not beating the envelope
        a_star, b_star, _ = opt.terms(xi_star)
        assert g_max == a_star - 0.9 * b_star
        assert g_max >= np.max(a - 0.9 * b) - bounds.XI_TIE_NATS
        assert 0.0 <= xi_star <= np.sqrt(50.0)

    @pytest.mark.parametrize("alpha, at_root", [(0.9, False), (0.5, True)])
    def test_line_climbing_inward_from_the_winning_end_is_searched(self, alpha, at_root):
        # h_c dips within 0.02 of one grid end, so the best grid line is that
        # end's but the line at xi_tol inside it is higher: the golden search
        # runs and returns an interior xi above the grid max
        root = np.sqrt(50.0)
        end = root if at_root else 0.0

        def cond_entropy(xi):
            d = abs(xi - end)
            return LOG_2PI - d * np.exp(-d / 0.02), 0.0

        opt = _DualityOptimizer(ChannelParams(1, SIGMA_6DEG, 50.0), cond_entropy)
        a, b, _ = np.array([opt.terms(x) for x in opt.grid]).T
        assert opt.grid[int(np.argmax(a - alpha * b))] == end
        g_max, xi_star = opt.inner_max(alpha)
        assert g_max > np.max(a - alpha * b)
        assert 0.0 < xi_star < root and abs(xi_star - end) < opt.grid[1]
        assert len(opt._terms) > opt.grid.size + 1

    def test_interior_peak_above_the_winning_grid_end_is_found(self):
        # g(alpha, xi) = T(xi) + (alpha0 - alpha) B(xi): at alpha0 the lines of
        # xi = 0 and sqrt(rho), where T = 0, tie and the grid's best line is an
        # end's. T also has a hill whose top, P = 4e-6 at xi = 1, lies midway
        # between grid points (of this grid and of a 64-point one), where the
        # hill is 1.3e-5 or more below P. alpha0 makes the line of the top
        # tangent to the prefix, so the bound is prefix(alpha0) + log 2pi + P;
        # without the hill's refinement it would be P lower.
        m, rho, top, xi_top, k = 1, 4.0, 4e-6, 1.0, 0.05
        root = np.sqrt(rho)

        def b_line(xi):
            return expect_log_noncentral(xi, m) - (xi * xi + m) / (rho + m)

        def prefix_slope(alpha):
            return np.log((rho + m) / alpha) - 1.0 + special.digamma(alpha)

        alpha0 = optimize.brentq(lambda a: prefix_slope(a) - b_line(xi_top), 0.01, 10.0)

        def t(xi):
            return max(-xi * (root - xi), top - k * (xi - xi_top) ** 2)

        def cond_entropy(xi):
            e1 = expect_log_noncentral(xi, m)
            return m * e1 - entropy_abs_sq(xi) - alpha0 * b_line(xi) - t(xi), 0.0

        opt = _DualityOptimizer(ChannelParams(m, SIGMA_6DEG, rho), cond_entropy)
        grid_t = [t(x) for x in opt.grid]
        assert max(grid_t) == grid_t[0] == grid_t[-1] == 0.0
        assert max(t(x) for x in np.linspace(0.0, root, 64)) == 0.0
        value, _, alpha, xi, _ = opt.minimize()
        bound = alpha0 * np.log((rho + m) / alpha0) + d_alpha(alpha0, m) + LOG_2PI + top
        assert abs(value - bound) <= 1e-9, value - bound
        assert abs(xi - xi_top) < opt.xi_tol and alpha == pytest.approx(alpha0, rel=1e-3)


@pytest.fixture
def optimizers(monkeypatch):
    """Every _DualityOptimizer that minimize runs, and its count of xi evaluations."""
    seen = []
    minimize, terms = _DualityOptimizer.minimize, _DualityOptimizer.terms

    def spy_minimize(opt):
        seen.append(opt)
        return minimize(opt)

    def spy_terms(opt, xi):
        # a miss of the per-xi term cache is one xi evaluation
        opt.misses = getattr(opt, "misses", 0) + (float(xi) not in opt._terms)
        return terms(opt, xi)

    monkeypatch.setattr(_DualityOptimizer, "minimize", spy_minimize)
    monkeypatch.setattr(_DualityOptimizer, "terms", spy_terms)
    return seen


DUALITY_ROWS = {
    "U": lambda p: upper_bound_U(p, q_levels=200, **SMALL_BUDGET),
    "U_s": lambda p: upper_bound_Us(p, n_samples=30_000, seed=31),
    "memoryless_plus_corr": memoryless_plus_correction,
}


class TestEnvelopeOptimizer:
    """One golden search in log alpha over the lines A(xi) - alpha B(xi)."""

    @pytest.mark.parametrize("kind", sorted(DUALITY_ROWS))
    def test_objective_unimodal_and_minimized(self, kind, optimizers):
        params = ChannelParams(1, SIGMA_6DEG, 10**1.7)
        rec = DUALITY_ROWS[kind](params)
        (opt,) = optimizers
        alphas = np.exp(np.linspace(np.log(1e-3), np.log(10.0), 400))
        f = np.array([opt.objective(a) for a in alphas])
        k = int(np.argmin(f))
        assert np.all(np.diff(f[: k + 1]) <= 0) and np.all(np.diff(f[k:]) >= 0)
        # the objective is the prefix plus the max over the lines of every xi,
        # rebuilt here from the terms of each xi
        xi = np.array(list(opt._terms))
        e1 = np.array([expect_log_noncentral(x, opt.m) for x in xi])
        e2 = np.array([entropy_abs_sq(x) for x in xi])
        hc = np.array([opt.cond_entropy(x)[0] for x in xi])
        a_line = opt.m * e1 - e2 - hc
        b_line = e1 - (xi * xi + opt.m) / (opt.rho + opt.m)
        direct = [
            a * np.log((opt.rho + opt.m) / a) + d_alpha(a, opt.m) + LOG_2PI
            + np.max(a_line - a * b_line)
            for a in alphas
        ]
        assert np.allclose(direct, f, rtol=0, atol=1e-12)
        assert f.min() >= rec.value_bits * LN2 - 1e-12
        assert rec.meta["xi_evals"] == len(opt._terms) == opt.misses

    def test_memoryless_xi_evaluations(self, optimizers):
        # the grid's only local maxima are its two ends, and at neither does
        # the line of the xi at xi_tol inside it beat the end's: the 16-point
        # grid plus those two xi, with no golden search
        rec = memoryless_plus_correction(ChannelParams(1, SIGMA_6DEG, 100.0))
        (opt,) = optimizers
        assert opt.grid.size == 16
        assert rec.meta["xi_evals"] == 18 == opt.misses
        assert rec.opt_xi in (0.0, 10.0)
        assert sorted(set(opt._terms) - set(opt.grid)) == [opt.xi_tol, 10.0 - opt.xi_tol]

    @pytest.mark.parametrize(
        "kind, m, snr_db",
        [("memoryless_plus_corr", m, snr) for m in (1, 2) for snr in (10.0, 30.0)]
        + [("U_s", 1, 26.0), ("U_s", 1, 84.0)],
    )
    def test_no_xi_of_a_scan_beats_the_envelope(self, kind, m, snr_db, optimizers):
        # 1001 xi on [0, sqrt(rho)] through the optimizer's own lines at alpha*:
        # none is above the envelope of the xi it evaluated by more than the
        # tie. Refining the grid argmax alone, U_s missed a peak by 5.2e-5
        # nats at 26 dB (near xi = 2.0) and by 0.297 nats at 84 dB (xi = 15.8)
        params = ChannelParams(m, SIGMA_6DEG, 10 ** (snr_db / 10))
        if kind == "U_s":
            rec = upper_bound_Us(params, n_samples=1000, seed=7)
        else:
            rec = memoryless_plus_correction(params)
        (opt,) = optimizers
        lines = np.array(list(opt._terms.values())).T
        envelope = np.max(lines[0] - rec.opt_alpha * lines[1])
        try:
            a, b, _ = np.array([opt.terms(x) for x in np.linspace(0.0, opt.root, 1001)]).T
        finally:
            entropy.clear_tables()
        assert np.max(a - rec.opt_alpha * b) <= envelope + bounds.XI_TIE_NATS

    def test_tied_bench_row_keeps_its_line_near_the_origin(self, optimizers):
        # U at M=1, 20 dB with the acceptance seed and the figure budgets: the
        # lines of xi = 0 and xi = sqrt(rho) tie at alpha*, and the line that
        # climbs inward from xi = 0 peaks near xi = 0.0618
        seed = derive_seed(ACCEPTANCE_SEED, "U", 20.0)
        rec = upper_bound_U(ChannelParams(1, SIGMA_6DEG, 100.0), seed=seed)
        (opt,) = optimizers
        assert any(0.03 < x < 0.1 for x in opt._terms)
        assert rec.meta["xi_runner_up"] == pytest.approx(0.0618, abs=5e-4)

    @pytest.mark.parametrize("m, rho", [(1, 100.0), (2, 10.0)])
    def test_memoryless_optimum_is_a_tie_of_the_two_end_amplitudes(self, m, rho):
        # min over alpha of the max of lines sits where the lines of xi = 0
        # and xi = sqrt(rho) cross, so xi* may be either of them
        rec = memoryless_plus_correction(ChannelParams(m, SIGMA_6DEG, rho))
        assert rec.meta["xi_tied"]
        assert {rec.opt_xi, rec.meta["xi_runner_up"]} == {0.0, float(np.sqrt(rho))}
        assert not rec.meta["alpha_at_edge"]

    def test_alpha_at_bracket_edge_reported(self, monkeypatch):
        params = ChannelParams(1, SIGMA_6DEG, 100.0)
        free = memoryless_plus_correction(params)
        monkeypatch.setattr(bounds, "ALPHA_MAX_PER_ANTENNA", 0.1)
        rec = memoryless_plus_correction(params)
        assert rec.meta["alpha_at_edge"]
        assert rec.opt_alpha == pytest.approx(0.1, rel=1e-9)
        assert free.opt_alpha > 0.1 and free.value_bits < rec.value_bits

    def test_refinement_that_never_settles_raises(self, monkeypatch):
        # an inner_max that always beats the envelope exhausts the rounds
        opt = _DualityOptimizer(ChannelParams(1, SIGMA_6DEG, 4.0), lambda xi: (LOG_2PI, 0.0))
        rounds = []

        def above_envelope(alpha):
            rounds.append(alpha)
            return np.inf, 0.0

        monkeypatch.setattr(opt, "inner_max", above_envelope)
        with pytest.raises(OptimizationError):
            opt.minimize()
        assert len(rounds) == bounds.MAX_ROUNDS

    @pytest.mark.parametrize("seed", [3, 5])
    def test_alpha_drift_below_the_tie_settles(self, seed, optimizers):
        # at 30 dB these rows refine xi at an alpha* that moves by tiny amounts
        # each round, so the golden path in xi keeps adding points; the search
        # stops once no refined xi beats the envelope
        params = ChannelParams(1, SIGMA_6DEG, 1000.0)
        rec = upper_bound_U(
            params, q_levels=48, block_length=600, n_blocks=3, past_window=100, seed=seed
        )
        (opt,) = optimizers
        assert np.isfinite(rec.value_bits) and np.isfinite(rec.std_error_bits)
        assert rec.meta["xi_evals"] == len(opt._terms) == opt.misses
