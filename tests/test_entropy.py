import tracemalloc

import numpy as np
import pytest
from scipy import special
from scipy.interpolate import PchipInterpolator

from phasecap import entropy
from phasecap.entropy import (
    LOG_2PI,
    clear_tables,
    entropy_abs_sq,
    entropy_delta_plus_phase,
    expect_log_noncentral,
    mean_se,
    sample_circular_gaussian,
)
from phasecap.errors import ConfigurationError, DomainError, NumericUnderflowError
from phasecap.mathcore import DEFAULT_QUADRATURE, TWO_PI, wrapped_gaussian_entropy

SIGMA_6DEG = np.deg2rad(6.0)
EULER_GAMMA = 0.5772156649015329


def mc_abs_sq_samples(xi, m, n, seed):
    rng = np.random.default_rng(seed)
    z = sample_circular_gaussian(rng, (n, m))
    z[:, 0] += xi
    return np.sum(np.abs(z) ** 2, axis=1)


class TestExpectLogNoncentral:
    def test_central_exponential(self):
        assert expect_log_noncentral(0.0, 1) == pytest.approx(-EULER_GAMMA, abs=1e-9)
        assert expect_log_noncentral(0.0, 1) == special.digamma(1)

    def test_central_gamma2(self):
        assert expect_log_noncentral(0.0, 2) == pytest.approx(
            1.0 - EULER_GAMMA, abs=1e-9
        )
        assert expect_log_noncentral(0.0, 2) == special.digamma(2)

    def test_vs_monte_carlo(self):
        t = mc_abs_sq_samples(4.0, 1, 10_000_000, seed=7)
        logs = np.log(t)
        se = logs.std() / np.sqrt(logs.size)
        assert expect_log_noncentral(4.0, 1) == pytest.approx(logs.mean(), abs=3 * se)

    @pytest.mark.parametrize("xi,m", [(1.0, 1), (2.0, 2), (5.0, 3)])
    def test_quadrature_vs_mc_grid(self, xi, m):
        t = mc_abs_sq_samples(xi, m, 1_000_000, seed=int(10 * xi) + m)
        logs = np.log(t)
        se = logs.std() / np.sqrt(logs.size)
        assert expect_log_noncentral(xi, m) == pytest.approx(logs.mean(), abs=3 * se)

    def test_high_amplitude_limit(self):
        assert expect_log_noncentral(100.0, 1) == pytest.approx(
            2 * np.log(100.0), rel=0.01
        )

    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0, 80.0])
    def test_m1_is_log_plus_exponential_integral(self, snr_db):
        # the duality optimizer's xi grid; ln(lam) + E1(lam) is undefined at 0
        for xi in np.linspace(0.0, np.sqrt(10 ** (snr_db / 10)), 64)[1:]:
            lam = xi * xi
            expected = np.log(lam) + special.exp1(lam)
            assert expect_log_noncentral(xi, 1) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_survival_series(self, m):
        # E psi(m + K), K ~ Poisson(lam), summed as psi(m) + sum_k P(K > k) / (m + k)
        for xi in np.linspace(0.0, 30.0, 64):
            lam = xi * xi
            k = np.arange(int(lam + 12 * xi + 40) + 1)
            expected = special.digamma(m) + np.sum(special.pdtrc(k, lam) / (m + k))
            assert expect_log_noncentral(xi, m) == pytest.approx(expected, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expect_log_noncentral(-1.0, 1)
        with pytest.raises(DomainError):
            expect_log_noncentral(1.0, 0)


class TestEntropyAbsSq:
    def test_exponential_case(self):
        assert entropy_abs_sq(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_large_xi_gaussian_limit(self):
        expected = 0.5 * np.log(2 * np.pi * np.e * 2 * 10.0**2)
        assert entropy_abs_sq(10.0) == pytest.approx(expected, rel=0.01)

    def test_vs_mc_plugin(self):
        # plug-in estimate -mean(log p(t)) with the known density
        xi = 1.0
        t = mc_abs_sq_samples(xi, 1, 10_000_000, seed=13)
        logp = -(t + xi**2) + np.log(special.ive(0, 2 * xi * np.sqrt(t))) + 2 * xi * np.sqrt(t)
        se = logp.std() / np.sqrt(logp.size)
        assert entropy_abs_sq(xi) == pytest.approx(-logp.mean(), abs=3 * se)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            entropy_abs_sq(-0.5)

    @staticmethod
    def adaptive_e2(xi):
        """e2 by the adaptive `Quadrature` on the same interval: the reference
        for the fixed rule."""

        def integrand(u):
            logp = -((u - xi) ** 2) + np.log(special.i0e(2.0 * xi * u))
            return -2.0 * u * logp * np.exp(logp)

        return DEFAULT_QUADRATURE.integrate(integrand, max(0.0, xi - 13.0), xi + 13.0)

    def test_fixed_rule_matches_the_adaptive_quadrature(self):
        # the xi range of the figure rows, 0 to sqrt(rho) at 30 dB
        for xi in np.linspace(0.0, 31.7, 61):
            assert entropy_abs_sq(xi) == pytest.approx(self.adaptive_e2(xi), abs=1e-13), xi

    @pytest.mark.parametrize("snr_db", [84.0, 86.0])
    def test_fixed_rule_at_the_largest_amplitudes(self, snr_db):
        # sqrt(rho) of the U_s rows just inside the Bessel range (1.7e-12 at 84 dB)
        xi = np.sqrt(10.0 ** (snr_db / 10.0))
        assert entropy_abs_sq(xi) == pytest.approx(self.adaptive_e2(xi), abs=5e-12)


def harmonic_count(sigma):
    """The first harmonic K with exp(-K^2 sigma^2 / 2) <= 1e-18."""
    return int(np.ceil(np.sqrt(2.0 * 18.0 * np.log(10.0)) / sigma) + 1)


def ive_conv_entropies(sigma, kappas, min_nodes=512):
    """`entropy._conv_entropies` with every ratio I_k/I_0 taken from `ive`
    at each order: the reference for the Bessel-ratio recurrence. The cosine
    series goes through the same real inverse FFT, on at least `min_nodes`
    nodes, and f log f is summed over the whole circle."""
    n_harm = harmonic_count(sigma)
    n_nodes = int(max(min_nodes, 2 ** np.ceil(np.log2(4 * n_harm))))
    k = np.arange(1, n_harm + 1)
    coeff = np.zeros((kappas.size, n_nodes // 2 + 1))
    coeff[:, 0] = 1.0
    ratio = special.ive(k[None, :], kappas[:, None]) / special.ive(0, kappas)[:, None]
    coeff[:, 1 : n_harm + 1] = np.exp(-0.5 * (k * sigma) ** 2)[None, :] * ratio
    f = np.maximum(np.fft.irfft(coeff, n_nodes, norm="forward") / TWO_PI, 1e-300)
    return -(TWO_PI / n_nodes) * np.sum(f * np.log(f), axis=1)


class TestConvEntropies:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("degrees", [0.5, 6.0, 20.0])
    def test_bessel_ratio_recurrence_matches_ive_at_every_order(self, degrees):
        # the nodes of units 0-20 (unit 20 reaches KAPPA_MAX), with kappa = 0
        # and kappas below 1e-3, where ive(K - 1, kappa) underflows to 0 at
        # each sigma (at 0.5 and 6 degrees, for all of them)
        sigma, n = np.deg2rad(degrees), entropy.NODES_PER_UNIT
        small = np.array([0.0, 1e-12, 1e-8, 1e-5, 5e-4, entropy.KAPPA_MAX])
        assert special.ive(harmonic_count(sigma) - 1, 1e-12) == 0.0
        for u in range(21):
            t = u + np.arange(-1, n + 2) / n
            kappas = np.minimum(np.abs(np.expm1(t)), entropy.KAPPA_MAX)
            if u == 0:
                kappas = np.concatenate([kappas, small])
            got = entropy._conv_entropies(sigma, kappas)
            assert np.max(np.abs(got - ive_conv_entropies(sigma, kappas))) <= 1e-12, u

    @pytest.mark.parametrize("degrees", [6.0, 20.0])
    def test_512_nodes_match_the_2048_node_sum(self, degrees):
        # the node floor is 512: 4K is 352 at 6 degrees and 112 at 20, so the
        # trapezoid sum runs on a quarter of the 2048 nodes of the old floor
        sigma = np.deg2rad(degrees)
        assert 4 * harmonic_count(sigma) <= 512
        kappas = np.concatenate([[0.0], np.geomspace(1e-6, entropy.KAPPA_MAX, 402)])
        got = entropy._conv_entropies(sigma, kappas)
        assert np.max(np.abs(got - ive_conv_entropies(sigma, kappas, min_nodes=2048))) <= 1e-13

    @pytest.mark.parametrize("degrees", [0.05, 0.07])
    def test_gaussian_limit_below_a_tenth_of_a_degree(self, degrees):
        # at KAPPA_MAX both laws are narrow Gaussians, so the convolution is
        # one of variance sigma^2 + 1/kappa; a cap of 4096 harmonics was
        # 1.2e-2 / 5.3e-5 nats off here
        sigma, kappa = np.deg2rad(degrees), entropy.KAPPA_MAX
        limit = 0.5 * np.log(2 * np.pi * np.e * (sigma**2 + 1 / kappa))
        assert abs(entropy._conv_entropies(sigma, kappa)[0] - limit) <= 1e-11

    def test_unit_table_peak_memory(self):
        # one unit table at 0.5 degrees: 131 kappas on 8192 nodes, without a
        # cached (K, N) cosine matrix (tracemalloc sees numpy's buffers)
        clear_tables()
        tracemalloc.start()
        try:
            entropy._unit_table(np.deg2rad(0.5), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            clear_tables()
        assert peak < 40e6


class TestUnitTables:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("degrees", [0.5, 6.0, 20.0])
    def test_tables_match_direct_entropies_off_the_nodes(self, degrees):
        # units 0-20 at random t between the nodes, with more in each unit's
        # first interval (in unit 0, kappa below 0.008); unit 20 reaches KAPPA_MAX
        sigma, n = np.deg2rad(degrees), entropy.NODES_PER_UNIT
        rng = np.random.default_rng(11)
        for u in range(21):
            x = np.concatenate([rng.random(64), rng.random(32) / n])  # t - u
            j = np.floor(x * n).astype(int)
            d = x - j / n
            c = entropy._unit_table(sigma, u)
            table = ((c[0, j] * d + c[1, j]) * d + c[2, j]) * d + c[3, j]
            direct = entropy._conv_entropies(sigma, np.minimum(np.expm1(u + x), entropy.KAPPA_MAX))
            assert np.max(np.abs(table - direct)) <= 5e-8, u
        clear_tables()

    def test_tables_interpolate_their_nodes(self):
        t = 3 + np.arange(entropy.NODES_PER_UNIT) / entropy.NODES_PER_UNIT
        c = entropy._unit_table(SIGMA_6DEG, 3)
        assert np.array_equal(c[3], entropy._conv_entropies(SIGMA_6DEG, np.expm1(t)))
        assert not c.flags.writeable
        clear_tables()


def whole_array_average(xi, sigma, n_samples, seed):
    """The one-step entropy average over all draws in one pass: one (n,)
    array per step, with one table stack over every draw's units."""
    n = entropy.NODES_PER_UNIT
    kappa = 2.0 * np.abs(xi + entropy._amplitude_draws(n_samples, seed)) * xi
    t = np.log1p(kappa)
    u_lo = int(t.min())
    c = np.hstack([entropy._unit_table(sigma, u) for u in range(u_lo, int(t.max()) + 1)])
    j = np.minimum(np.floor(n * t).astype(int) - n * u_lo, c.shape[1] - 1)
    d = t - (j + n * u_lo) / n
    h, *lower = np.take(c, j, axis=1)
    for ck in lower:
        h *= d
        h += ck
    return mean_se(h)


class TestEntropyDeltaPlusPhase:
    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_row_blocks_equal_the_whole_array(self, snr_db, monkeypatch):
        # 8192 draws per block (four table rows each); both counts end in a
        # ragged block, and every draw's value is the whole-array one
        blocks, row_blocks = [], entropy._row_blocks

        def recorded(n, q):
            slices = list(row_blocks(n, q))
            blocks.extend(range(n)[b] for b in slices)
            return slices

        monkeypatch.setattr(entropy, "_row_blocks", recorded)
        for n_samples in (100_000, 20_037):
            for xi in (0.0, 1.0, np.sqrt(10 ** (snr_db / 10))):
                blocks.clear()
                value = entropy_delta_plus_phase(xi, SIGMA_6DEG, n_samples, seed=3)
                assert value == whole_array_average(xi, SIGMA_6DEG, n_samples, 3)
                assert [len(b) for b in blocks[:-1]] == [8192] * (n_samples // 8192)
                assert len(blocks[-1]) == n_samples % 8192
        clear_tables()

    def test_kappa_max_is_checked_in_every_block(self, monkeypatch):
        # one draw past KAPPA_MAX, the last one, in the ragged last block
        z = np.zeros(20_037, dtype=complex)
        z[-1] = entropy.KAPPA_MAX
        monkeypatch.setattr(entropy, "_amplitude_draws", lambda n, seed: z[:n])
        with pytest.raises(NumericUnderflowError, match="von Mises kappa"):
            entropy_delta_plus_phase(1.0, SIGMA_6DEG, z.size, seed=0)
        entropy._unit_table.cache_clear()

    def test_zero_amplitude_uniform(self):
        value, se = entropy_delta_plus_phase(0.0, SIGMA_6DEG, 1000, seed=1)
        assert value == pytest.approx(LOG_2PI, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_large_sigma_uniform(self):
        value, _ = entropy_delta_plus_phase(3.0, 10.0, 1000, seed=1)
        assert value == pytest.approx(LOG_2PI, abs=1e-4)

    def test_bitwise_reproducible(self):
        xi = np.sqrt(10.0**2.0)
        a = entropy_delta_plus_phase(xi, SIGMA_6DEG, 5000, seed=99)
        b = entropy_delta_plus_phase(xi, SIGMA_6DEG, 5000, seed=99)
        assert a == b
        assert isinstance(a, tuple) and all(type(v) is float for v in a)

    def test_lower_bounded_by_increment_entropy(self):
        h_delta = wrapped_gaussian_entropy(SIGMA_6DEG)
        for xi in [0.0, 0.5, 2.0, 10.0, 31.6]:
            value, se = entropy_delta_plus_phase(xi, SIGMA_6DEG, 4000, seed=5)
            assert value >= h_delta - 3 * se - 1e-9

    def test_monotone_nonincreasing_in_xi(self):
        values = [
            entropy_delta_plus_phase(xi, SIGMA_6DEG, 20_000, seed=17)
            for xi in [0.0, 1.0, 3.0, 10.0, 30.0]
        ]
        for (lo, lo_se), (hi, hi_se) in zip(values[1:], values[:-1]):
            assert lo <= hi + 3 * np.hypot(lo_se, hi_se)

    def test_mc_oracle_cross_check(self):
        # brute-force sample Delta + phi0 given r, plug-in with the exact
        # convolution density evaluated by the production path at a single
        # kappa (the inner entropy is deterministic given r)
        xi, sigma = 2.0, 0.3
        rng = np.random.default_rng(31)
        z = sample_circular_gaussian(rng, 200_000)
        r = np.abs(xi + z)
        value, _ = entropy_delta_plus_phase(xi, sigma, 200_000, seed=31)
        # independent oracle: h = E_r[h_vm_conv(2 r xi)] with the inner
        # entropy computed by direct quadrature of the convolution integral
        from phasecap.mathcore import DEFAULT_QUADRATURE, TWO_PI, wrapped_gaussian_pdf

        def inner_entropy(kappa, nodes=4096):
            u = TWO_PI * np.arange(nodes) / nodes
            phi = TWO_PI * np.arange(nodes) / nodes
            vm = np.exp(kappa * (np.cos(phi) - 1.0))
            vm /= vm.sum() * (TWO_PI / nodes)
            wg = wrapped_gaussian_pdf(u, sigma)
            # circular convolution via FFT of sampled densities
            f = np.fft.irfft(np.fft.rfft(wg) * np.fft.rfft(vm), nodes) * (TWO_PI / nodes)
            f = np.maximum(f, 1e-300)
            return -(TWO_PI / nodes) * np.sum(f * np.log(f))

        sub = rng.choice(r, size=400, replace=False)
        oracle = np.mean([inner_entropy(2 * ri * xi) for ri in sub])
        se = np.std([inner_entropy(2 * ri * xi) for ri in sub]) / np.sqrt(400)
        assert value == pytest.approx(oracle, abs=3 * se + 1e-3)

    def test_warm_tables_give_the_value_of_cleared_ones(self):
        xi = 7.0
        clear_tables()
        entropy_delta_plus_phase(2.0, SIGMA_6DEG, 5000, seed=4)  # fills the draws and units 0-3
        warm = entropy_delta_plus_phase(xi, SIGMA_6DEG, 5000, seed=4)
        clear_tables()
        assert entropy_delta_plus_phase(xi, SIGMA_6DEG, 5000, seed=4) == warm

    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_unit_tables_match_the_per_xi_table(self, snr_db):
        # reference: one 257-node PCHIP table in log1p(kappa) per xi, spanning
        # that xi's draws, read through the interpolator
        def per_xi(xi, sigma, n, seed):
            z = sample_circular_gaussian(np.random.default_rng([seed, 0x5E1F]), n)
            t = np.log1p(2.0 * np.abs(xi + z) * xi)
            nodes = np.linspace(t.min(), t.max(), 257)
            h = entropy._conv_entropies(sigma, np.expm1(nodes))
            values = PchipInterpolator(nodes, h, extrapolate=True)(t)
            return values.mean(), values.std(ddof=1) / np.sqrt(n)

        for xi in (0.05, 1.0, np.sqrt(10 ** (snr_db / 10))):
            ref, se = per_xi(xi, SIGMA_6DEG, 100_000, 3)
            value, new_se = entropy_delta_plus_phase(xi, SIGMA_6DEG, 100_000, 3)
            assert abs(value - ref) <= 0.01 * se
            assert new_se == pytest.approx(se, rel=1e-4)
        clear_tables()

    def test_configuration_error(self):
        with pytest.raises(ConfigurationError):
            entropy_delta_plus_phase(1.0, SIGMA_6DEG, 50, seed=0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            entropy_delta_plus_phase(-1.0, SIGMA_6DEG, 1000, seed=0)
        with pytest.raises(DomainError):
            entropy_delta_plus_phase(1.0, 0.0, 1000, seed=0)
