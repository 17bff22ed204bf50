import numpy as np
import pytest
from scipy import stats

from phasecap.channel import (
    ChannelParams,
    Constellation,
    constellation_by_name,
    load_channel_matrix,
    los_antenna_spacing,
    psk_constellation,
    qam_constellation,
    simulate,
    singular_value_bounds,
    wavelength_from_ghz,
    wiener_phase,
)
from phasecap.entropy import sample_circular_gaussian
from phasecap.errors import (
    ConfigurationError,
    DomainError,
    PeakPowerError,
    RankError,
    SchemaError,
)
from phasecap.mathcore import TWO_PI, wrapped_gaussian_cdf

SIGMA_6DEG = np.deg2rad(6.0)


class TestSimulate:
    def test_noiseless_degenerate(self):
        p = ChannelParams(2, 0.0, 20.0)
        x = np.array([[1.0 + 1j, 0.5], [2.0, 1j]], dtype=complex)
        y, theta = simulate(p, x, seed=0)
        assert np.all(theta == theta[0])
        # with a constant phase theta_0 and H = I, y - e^{j theta_0} x is the
        # noise draw that follows the start and the increments on the same
        # seeded generator
        rng = np.random.default_rng(0)
        wiener_phase(rng, 0.0, x.shape[0])
        noise = sample_circular_gaussian(rng, x.shape)
        assert np.allclose(y - np.exp(1j * theta[0]) * x, noise, rtol=0.0, atol=1e-12)

    def test_noise_covariance(self):
        m = 3
        p = ChannelParams(m, 0.1, 5.0)
        x = np.zeros((1_000_000, m), dtype=complex)
        y, _ = simulate(p, x, seed=42)
        power = np.sum(np.abs(y) ** 2, axis=1)
        se = power.std() / np.sqrt(power.size)
        assert power.mean() == pytest.approx(m, abs=3 * se)

    def test_peak_violation_names_index(self):
        p = ChannelParams(1, 0.1, 4.0)
        x = np.array([[1.0], [1.5], [2.5]], dtype=complex)
        with pytest.raises(PeakPowerError) as err:
            simulate(p, x, seed=0)
        assert err.value.index == 2

    def test_deterministic_given_seed(self):
        p = ChannelParams(2, SIGMA_6DEG, 10.0)
        x = np.full((50, 2), 1.0 + 0j)
        y1, t1 = simulate(p, x, seed=77)
        y2, t2 = simulate(p, x, seed=77)
        assert np.array_equal(y1, y2)
        assert np.array_equal(t1, t2)

    def test_increments_match_wrapped_gaussian(self):
        theta = wiener_phase(np.random.default_rng(5), SIGMA_6DEG, 100_001)
        inc = np.mod(np.diff(theta), TWO_PI)
        res = stats.kstest(inc, lambda d: wrapped_gaussian_cdf(d, SIGMA_6DEG))
        assert res.pvalue > 0.01

    def test_stationary_marginal_uniform(self):
        k = 5
        rng = np.random.default_rng(9)
        theta = [wiener_phase(rng, 0.8, k + 1)[k] for _ in range(100_000)]
        counts, _ = np.histogram(theta, bins=36, range=(0.0, TWO_PI))
        res = stats.chisquare(counts)
        assert res.pvalue > 0.01

    def test_isotropy_under_unitary_rotation(self):
        # right-multiplying inputs by a fixed unitary leaves ||y|| distribution
        # unchanged when H = I
        p = ChannelParams(2, SIGMA_6DEG, 8.0)
        rng = np.random.default_rng(3)
        x = (rng.standard_normal((40_000, 2)) + 1j * rng.standard_normal((40_000, 2)))
        x *= np.sqrt(p.snr) / np.linalg.norm(x, axis=1, keepdims=True)
        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        y1, _ = simulate(p, x, seed=101)
        y2, _ = simulate(p, x @ u.T, seed=202)
        res = stats.ks_2samp(np.linalg.norm(y1, axis=1), np.linalg.norm(y2, axis=1))
        assert res.pvalue > 0.01

    def test_bad_shape(self):
        p = ChannelParams(2, 0.1, 4.0)
        with pytest.raises(DomainError):
            simulate(p, np.zeros((5, 3), dtype=complex), seed=0)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ChannelParams(0, 0.1, 1.0)
        with pytest.raises(DomainError):
            ChannelParams(1, -0.1, 1.0)
        with pytest.raises(DomainError):
            ChannelParams(1, 0.1, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_snr_or_sigma(self, value):
        with pytest.raises(DomainError, match="snr must be finite"):
            ChannelParams(1, 0.1, value)
        with pytest.raises(DomainError, match="sigma_delta must be finite"):
            ChannelParams(1, value, 1.0)


class TestConstellation:
    def test_qam_peak_normalization_exact(self):
        for m, snr in [(1, 100.0), (2, 10 ** 2.3), (4, 7.0)]:
            s = qam_constellation(64).scaled_symbols(snr, m)
            assert m * np.max(np.abs(s)) ** 2 == pytest.approx(snr, rel=1e-12)

    def test_psk(self):
        s = psk_constellation(8).scaled_symbols(4.0, 1)
        assert np.allclose(np.abs(s), 2.0)
        assert len(np.unique(np.round(s, 12))) == 8

    def test_distinct_symbols_required(self):
        with pytest.raises(ConfigurationError):
            Constellation(np.array([1.0 + 0j, 1.0 + 0j]))

    def test_by_name(self):
        assert constellation_by_name("qam64").symbols.size == 64
        assert constellation_by_name("QAM-16").symbols.size == 16
        assert constellation_by_name("psk8").symbols.size == 8
        with pytest.raises(ConfigurationError):
            constellation_by_name("apsk32")

    def test_bad_qam_order(self):
        with pytest.raises(ConfigurationError):
            qam_constellation(24)


class TestLosSpacing:
    def test_80ghz_backhaul_example(self):
        d = los_antenna_spacing(wavelength_from_ghz(80.0), 500.0, 2)
        assert d == pytest.approx(0.97, abs=0.01)

    def test_20ghz_formula_value(self):
        # sqrt(lambda R / M) at 20 GHz over 3 km with 2 antennas
        lam = wavelength_from_ghz(20.0)
        d = los_antenna_spacing(lam, 3000.0, 2)
        assert d == pytest.approx(np.sqrt(lam * 3000.0 / 2), rel=1e-12)
        assert d == pytest.approx(4.742, abs=2e-3)

    def test_unit_case(self):
        assert los_antenna_spacing(1.0, 1.0, 1) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            los_antenna_spacing(-1.0, 1.0, 1)
        with pytest.raises(DomainError):
            los_antenna_spacing(1.0, 0.0, 1)
        with pytest.raises(DomainError):
            wavelength_from_ghz(0.0)


class TestSingularValueBounds:
    def test_identity(self):
        assert singular_value_bounds(np.eye(3)) == (
            pytest.approx(1.0),
            pytest.approx(1.0),
        )

    def test_diagonal(self):
        lo, hi = singular_value_bounds(np.diag([1.0, 2.0]))
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(4.0))

    def test_random_2x2_vs_quadratic_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = h.conj().T @ h
            tr = a[0, 0].real + a[1, 1].real
            det = np.linalg.det(a).real
            disc = np.sqrt(tr**2 - 4 * det)
            expected = ((tr - disc) / 2, (tr + disc) / 2)
            lo, hi = singular_value_bounds(h)
            assert lo == pytest.approx(expected[0], abs=1e-10 * max(1, hi))
            assert hi == pytest.approx(expected[1], abs=1e-10 * max(1, hi))

    def test_rank_error(self):
        with pytest.raises(RankError):
            singular_value_bounds(np.array([[1.0, 2.0], [0.5, 1.0]]))


class TestLoadChannelMatrix(object):
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0+0.5j 0.25-0.1j\n-0.3+0j 0.9+0.9j\n")
        h = load_channel_matrix(path)
        assert h.shape == (2, 2)
        assert h[0, 1] == 0.25 - 0.1j

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# comment\n\n1+0j 0j\n0j 1+0j\n")
        assert np.allclose(load_channel_matrix(path), np.eye(2))

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1+0j nope\n0j 1+0j\n")
        with pytest.raises(SchemaError):
            load_channel_matrix(path)

    @pytest.mark.parametrize("entry", ["nan", "inf", "1-infj"])
    def test_non_finite_entry(self, tmp_path, entry):
        path = tmp_path / "h.txt"
        path.write_text(f"1+0j 0j\n0j {entry}\n")
        with pytest.raises(SchemaError, match=f":2: non-finite entry in '0j {entry}'"):
            load_channel_matrix(path)

    def test_ragged(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1+0j 0j\n0j\n")
        with pytest.raises(SchemaError):
            load_channel_matrix(path)

    def test_nonsquare(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1+0j 0j 2+0j\n0j 1+0j 0j\n")
        with pytest.raises(SchemaError):
            load_channel_matrix(path)
