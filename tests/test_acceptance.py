"""Acceptance suite: desk-scale reproduction checks with one printed
PASS/FAIL line per criterion.

The two figure sweeps are the expensive part (about 25 s each on first run);
their rows are cached per config hash in .acceptance-cache so reruns are
incremental. Delete that directory for a cold run.
"""

import csv
import json
import os
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from phasecap import cli
from phasecap.bounds import LN2, asymptotic_capacity_nats
from phasecap.channel import ChannelParams, psk_constellation, qam_constellation
from phasecap.entropy import entropy_abs_sq, expect_log_noncentral
from phasecap.inforate import qam_rate
from phasecap.mathcore import (
    DEFAULT_QUADRATURE,
    TWO_PI,
    wrapped_gaussian_entropy,
    wrapped_gaussian_pdf,
)

from coherent_qam import coherent_qam64

SIGMA_6DEG = np.deg2rad(6.0)
EULER_GAMMA = 0.5772156649015329
MASTER_SEED = 20260809
CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", ".acceptance-cache")

SWEEP_TEMPLATE = """
[channel]
antennas = {m}
sigma_delta_degrees = 6.0
[sweep]
start_db = 10
stop_db = 30
step_db = 2
kinds = U, U_s, asymptotic, memoryless_plus_corr, qam_lower
[mc]
n_samples = 100000
block_length = 2000
n_blocks = 4
q_levels = 200
past_window = 200
constellation = qam64
[run]
master_seed = {seed}
parallelism = 2
[output]
csv = {csv}
cache_dir = {cache}
"""


def report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def load_series(csv_path):
    rows = {}
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            cells = dict(zip(header, line.strip().split(",")))
            kind = cells["kind"]
            rows.setdefault(kind, []).append(
                (
                    float(cells["snr_db"]),
                    float(cells["value_bits"]),
                    float(cells["std_error_bits"]),
                )
            )
    out = {}
    for kind, triples in rows.items():
        triples.sort()
        arr = np.array(triples)
        out[kind] = {"snr": arr[:, 0], "bits": arr[:, 1], "se": arr[:, 2]}
    return out


def run_figure_sweep(m, tmpdir):
    csv = os.path.join(tmpdir, f"fig_m{m}.csv")
    config = cli.parse_config(
        SWEEP_TEMPLATE.format(m=m, seed=MASTER_SEED, csv=csv, cache=CACHE_DIR)
    )
    started = time.time()
    path, failed = cli.run_sweep(config)
    print(f"\n[fig sweep M={m}] {time.time() - started:.0f}s, {failed} failed rows")
    assert failed == 0
    return load_series(path)


@pytest.fixture(scope="session")
def fig1(tmp_path_factory):
    return run_figure_sweep(1, str(tmp_path_factory.mktemp("fig1")))


@pytest.fixture(scope="session")
def fig2(tmp_path_factory):
    return run_figure_sweep(2, str(tmp_path_factory.mktemp("fig2")))


def inv_interp(curve_snr, curve_bits, level):
    """SNR at which the (increasing) curve reaches `level`, with linear
    extrapolation beyond the sampled range."""
    bits, snr = np.asarray(curve_bits), np.asarray(curve_snr)
    if level <= bits[0]:
        slope = (bits[1] - bits[0]) / (snr[1] - snr[0])
        return snr[0] - (bits[0] - level) / slope
    if level >= bits[-1]:
        slope = (bits[-1] - bits[-2]) / (snr[-1] - snr[-2])
        return snr[-1] + (level - bits[-1]) / slope
    return float(np.interp(level, bits, snr))


def horizontal_gaps(series, min_snr):
    """Per-point horizontal distance (dB) from the upper bound U down to the
    QAM rate: gap(s) = s - U^{-1}(R_qam(s))."""
    u, q = series["U"], series["qam_lower"]
    gaps = {}
    for s, rate in zip(q["snr"], q["bits"]):
        if s >= min_snr:
            gaps[s] = s - inv_interp(u["snr"], u["bits"], rate)
    return gaps


def committed_rows(kinds, snrs=None):
    """(config dict, kind, snr, committed row) of each listed kind in both
    figures, found by its cache key, so a moved key fails too."""
    for m in (1, 2):
        text = SWEEP_TEMPLATE.format(m=m, seed=MASTER_SEED, csv="unused.csv", cache=CACHE_DIR)
        config = cli.parse_config(text)
        for kind in kinds:
            for snr in snrs or config.snr_grid_db():
                path = os.path.join(CACHE_DIR, cli.row_cache_key(config, kind, snr) + ".json")
                assert os.path.exists(path), f"no committed {kind} row at M={m}, {snr} dB"
                with open(path) as fh:
                    yield asdict(config), kind, snr, json.load(fh)


class TestCommittedRows:
    # the cache may serve only what the current code computes
    def test_deterministic_rows_recompute_bit_for_bit(self):
        checked = 0
        for config, kind, snr, committed in committed_rows(("asymptotic", "memoryless_plus_corr")):
            row = cli.compute_row(config, kind, snr)
            for col in ("value_bits", "std_error_bits", "opt_alpha", "opt_xi"):
                assert row[col] == committed[col], (config["antennas"], kind, snr, col)
            checked += 1
        assert checked == 44

    def test_u_s_rows_recompute_bit_for_bit(self):
        # the one-step entropy tables feed only U_s; its draws are seeded
        checked = 0
        for config, kind, snr, committed in committed_rows(("U_s",), (10.0, 30.0)):
            row = cli.compute_row(config, kind, snr)
            for col in ("value_bits", "std_error_bits", "opt_alpha", "opt_xi", "seed", "n_samples"):
                assert row[col] == committed[col], (config["antennas"], kind, snr, col)
            checked += 1
        assert checked == 4

    def test_u_rows_recompute_bit_for_bit(self):
        # the pilot blocks are seeded; any change in rounding moves a U row
        checked = 0
        for config, kind, snr, committed in committed_rows(("U",), (10.0, 30.0)):
            row = cli.compute_row(config, kind, snr)
            for col in ("value_bits", "std_error_bits", "opt_alpha", "opt_xi", "seed", "n_samples"):
                assert row[col] == committed[col], (config["antennas"], kind, snr, col)
            checked += 1
        assert checked == 4

    def test_qam_lower_rows_recompute_bit_for_bit(self):
        # its blocks are seeded, and a change in rounding moves its rows
        checked = 0
        for config, kind, snr, committed in committed_rows(("qam_lower",), (10.0, 30.0)):
            row = cli.compute_row(config, kind, snr)
            for col in ("value_bits", "std_error_bits", "seed", "n_samples"):
                assert row[col] == committed[col], (config["antennas"], kind, snr, col)
            checked += 1
        assert checked == 4


class TestCriterion1:
    def test_fig1_qam_gap(self, fig1):
        gaps = horizontal_gaps(fig1, min_snr=15.0)
        bad = {s: round(g, 2) for s, g in gaps.items() if not 1.5 <= g <= 3.5}
        detail = "gaps(dB) " + ", ".join(f"{s:.0f}:{g:.2f}" for s, g in sorted(gaps.items()))
        report(1, "fig1 M=1 U-vs-64QAM horizontal gap in [1.5, 3.5] dB", not bad, detail)


class TestCriterion2:
    def test_fig2_qam_gap(self, fig2):
        gaps = horizontal_gaps(fig2, min_snr=20.0)
        bad = {s: round(g, 2) for s, g in gaps.items() if not 2.5 <= g <= 4.5}
        detail = "gaps(dB) " + ", ".join(f"{s:.0f}:{g:.2f}" for s, g in sorted(gaps.items()))
        report(2, "fig2 M=2 U-vs-64QAM horizontal gap in [2.5, 4.5] dB", not bad, detail)


class TestCoherentDecomposition:
    # Criteria 1 and 2 against coherent 64-QAM, the rate with the phase known.
    # I(X; Y) <= I(X; Y | theta), so the gap down to the QAM rows is at least
    # the coherent gap, and where the coherent gap is above a window's top no
    # receiver of this input brings the point into the window. The windows
    # stay as they are; the printed loss is what phase noise adds to the gap.
    @pytest.mark.parametrize(
        "fig_name, m, min_snr, top, out_of_reach",
        [
            ("fig1", 1, 15.0, 3.5, {26.0: 4.49, 28.0: 6.37, 30.0: 8.36}),
            ("fig2", 2, 20.0, 4.5, {28.0: 5.09, 30.0: 6.85}),
        ],
    )
    def test_gap_includes_the_coherent_gap(self, fig_name, m, min_snr, top, out_of_reach, request):
        series = request.getfixturevalue(fig_name)
        qam = series["qam_lower"]
        coherent = np.array([coherent_qam64(10 ** (s / 10), m)[0] for s in qam["snr"]])
        assert np.all(qam["bits"] <= coherent + 3 * qam["se"])
        gaps = horizontal_gaps(series, min_snr)
        coherent_gaps = horizontal_gaps(
            {"U": series["U"], "qam_lower": {"snr": qam["snr"], "bits": coherent}}, min_snr
        )
        loss_bits = zip(qam["snr"], coherent - qam["bits"])
        print(
            f"\n[coherent decomposition M={m}] phase-noise loss (bits) "
            + ", ".join(f"{s:.0f}:{loss:.3f}" for s, loss in loss_bits)
            + "; (dB) "
            + ", ".join(f"{s:.0f}:{gaps[s] - g:.2f}" for s, g in sorted(coherent_gaps.items()))
        )
        beyond = {s: round(g, 2) for s, g in coherent_gaps.items() if g > top}
        assert beyond == out_of_reach


class TestCriterion3:
    def test_m2_tracking(self, fig2):
        u, asym = fig2["U"], fig2["asymptotic"]
        diffs = u["bits"] - asym["bits"]
        mask = u["snr"] >= 10.0
        worst = float(np.max(np.abs(diffs[mask])))
        detail = f"max |U - asym| = {worst:.3f} bits over {int(mask.sum())} points >= 10 dB"
        report(3, "M=2 asymptotic tracking within 0.5 bits", worst <= 0.5, detail)

    def test_m1_below_and_shrinking(self, fig1):
        u, asym = fig1["U"], fig1["asymptotic"]
        mask = (u["snr"] >= 16.0) & (u["snr"] <= 30.0)
        diff = (asym["bits"] - u["bits"])[mask]
        se = u["se"][mask]
        below = bool(np.all(diff > 0))
        shrinking = all(
            d2 <= d1 + 3 * np.hypot(s1, s2)
            for d1, d2, s1, s2 in zip(diff[:-1], diff[1:], se[:-1], se[1:])
        )
        detail = "asym-U(bits) " + ", ".join(
            f"{s:.0f}:{d:+.3f}" for s, d in zip(u["snr"][mask], diff)
        )
        report(3, "M=1 U below asymptote, gap shrinking over 16-30 dB", below and shrinking, detail)


class TestCriterion4:
    @pytest.mark.parametrize("m", [1, 2])
    def test_asymptotic_slope_exact(self, m):
        target = (m - 0.5) * np.log2(10.0)
        snrs = np.arange(10.0, 31.0, 2.0)
        vals = [asymptotic_capacity_nats(m, SIGMA_6DEG, 10 ** (s / 10)) / LN2 for s in snrs]
        slopes = np.diff(vals) / 0.2
        ok = np.max(np.abs(slopes - target)) < 1e-9
        report(
            4,
            f"asymptotic slope M={m} = (M-1/2)*log2(10) bits/decade exactly",
            ok,
            f"max deviation {np.max(np.abs(slopes - target)):.2e}",
        )

    def test_u_slope_fig1(self, fig1):
        self._check_u_slope(fig1, 1)

    def test_u_slope_fig2(self, fig2):
        self._check_u_slope(fig2, 2)

    def _check_u_slope(self, series, m):
        u = series["U"]
        i26 = int(np.flatnonzero(u["snr"] == 26.0)[0])
        i30 = int(np.flatnonzero(u["snr"] == 30.0)[0])
        slope = (u["bits"][i30] - u["bits"][i26]) / 0.4
        target = (m - 0.5) * np.log2(10.0)
        rel = abs(slope / target - 1.0)
        report(
            4,
            f"U slope 26-30 dB within 10% of high-SNR slope (M={m})",
            rel <= 0.10,
            f"slope {slope:.3f} vs target {target:.3f} bits/decade ({100 * rel:.1f}% off)",
        )


class TestCriterion5:
    def test_eq24_identity(self):
        m, lam_min, lam_max = 2, 0.5, 2.0
        curve = lambda snr: asymptotic_capacity_nats(m, SIGMA_6DEG, snr) / LN2
        lo, hi = curve(lam_min * 200.0), curve(lam_max * 200.0)
        gap_nats = (hi - lo) * LN2
        target = 1.5 * np.log(4.0)
        ok = abs(gap_nats - target) < 1e-9
        report(
            5,
            "non-unitary shift of asymptote reproduces (M-1/2)log(l_max/l_min)",
            ok,
            f"gap {gap_nats:.12f} nats vs {target:.12f}",
        )


class TestCriterion6:
    @pytest.mark.parametrize("fig_name", ["fig1", "fig2"])
    def test_ordering(self, fig_name, request):
        series = request.getfixturevalue(fig_name)
        order = ["qam_lower", "U", "U_s", "memoryless_plus_corr"]
        violations = []
        for lo_kind, hi_kind in zip(order, order[1:]):
            lo, hi = series[lo_kind], series[hi_kind]
            for s, lv, lse, hv, hse in zip(lo["snr"], lo["bits"], lo["se"], hi["bits"], hi["se"]):
                if lv > hv + 3 * np.hypot(lse, hse):
                    violations.append(f"{lo_kind}>{hi_kind}@{s:.0f}dB ({lv:.3f}>{hv:.3f})")
        report(
            6,
            f"ordering qam <= U <= U_s <= memoryless ({fig_name})",
            not violations,
            "; ".join(violations) if violations else "holds at every swept point",
        )


class TestCriterion7:
    def test_oracle_suite_fast(self):
        started = time.time()
        checks = []

        total = DEFAULT_QUADRATURE.integrate(
            lambda d: wrapped_gaussian_pdf(d, SIGMA_6DEG), 0.0, TWO_PI
        )
        checks.append(("wrapped normalization", abs(total - 1.0) < 1e-10))

        h_delta = wrapped_gaussian_entropy(SIGMA_6DEG)
        approx = 0.5 * np.log(2 * np.pi * np.e * SIGMA_6DEG**2)
        checks.append(("h(increment) small-sigma", abs(h_delta - approx) < 1e-3))

        checks.append(
            ("E log exp(1)", abs(expect_log_noncentral(0.0, 1) + EULER_GAMMA) < 1e-6)
        )
        psi2 = 1.0 - EULER_GAMMA
        checks.append(("E log gamma(2,1)", abs(expect_log_noncentral(0.0, 2) - psi2) < 1e-6))
        checks.append(("h(|z|^2) exponential", abs(entropy_abs_sq(0.0) - 1.0) < 1e-6))

        p_uniform = ChannelParams(1, 10.0, 10.0)
        psk = qam_rate(p_uniform, psk_constellation(8), 64, block_length=2000, n_blocks=2, seed=5)
        checks.append(
            ("PSK under uniform phase ~ 0", abs(psk.value_bits) <= 3 * psk.std_error_bits + 1e-9)
        )

        snr, block_length, n_blocks = 10**1.5, 2000, 2
        p_coh = ChannelParams(1, 1e-6, snr)
        est = qam_rate(p_coh, qam_constellation(64), 200, block_length, n_blocks, seed=11)
        rate, variance = coherent_qam64(snr, 1)
        tol = 3 * np.sqrt(variance / (n_blocks * block_length))
        checks.append(("coherent AWGN degenerate", abs(est.value_bits - rate) <= tol))

        p20 = ChannelParams(1, SIGMA_6DEG, 10**2.0)
        rates = [
            qam_rate(
                p20,
                qam_constellation(64),
                levels,
                block_length=2000,
                n_blocks=2,
                seed=7,
            ).value_bits
            for levels in (200, 400)
        ]
        checks.append(("quantizer doubling < 0.02 bits", abs(rates[1] - rates[0]) < 0.02))

        elapsed = time.time() - started
        failed = [name for name, ok in checks if not ok]
        ok = not failed and elapsed < 60.0
        report(
            7,
            "oracle suite (fast)",
            ok,
            f"{len(checks)} checks, {elapsed:.0f}s"
            + (f", failed: {failed}" if failed else ""),
        )


class TestCriterion8:
    def test_deterministic_rerun(self, tmp_path):
        template = """
[channel]
antennas = 1
sigma_delta_degrees = 6.0
[sweep]
start_db = 10
stop_db = 14
step_db = 2
kinds = asymptotic, U_s
[mc]
n_samples = 2000
[run]
master_seed = 99
parallelism = 1
[output]
csv = {csv}
cache_dir = {cache}
"""
        c1 = cli.parse_config(
            template.format(csv=tmp_path / "a.csv", cache=tmp_path / "cache_a")
        )
        p1, _ = cli.run_sweep(c1)
        first = open(p1, "rb").read()
        p1b, _ = cli.run_sweep(c1)
        identical = open(p1b, "rb").read() == first

        c2 = replace(c1, csv_path=str(tmp_path / "b.csv"), cache_dir=str(tmp_path / "cache_b"))
        p2, _ = cli.run_sweep(c2)
        # every cell but the row's run time
        runtime = cli.CSV_COLUMNS.index("runtime_s")
        strip = lambda data: [
            r[:runtime] + r[runtime + 1 :] for r in csv.reader(data.decode().splitlines())
        ]
        same_values = strip(open(p2, "rb").read()) == strip(first)

        report(
            8,
            "sweep rerun determinism",
            identical and same_values,
            f"byte-identical rerun: {identical}; cold-cache value columns equal: {same_values}",
        )
