import csv
import inspect
import itertools
import json
import multiprocessing
import os
from dataclasses import asdict

import numpy as np
import pytest

from phasecap import cli
from phasecap.bounds import upper_bound_U
from phasecap.channel import (
    ChannelParams,
    load_channel_matrix,
    qam_constellation,
    singular_value_bounds,
)
from phasecap.cli import (
    CSV_COLUMNS,
    ExperimentConfig,
    canonical_text,
    derive_seed,
    parse_config,
    row_cache_key,
    run_sweep,
)
from phasecap.errors import ConfigurationError, DomainError, RankError, UsageError
from phasecap.inforate import qam_rate

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
H_EXAMPLE = os.path.join(CONFIGS, "h_example.txt")

BASIC_CONFIG = """
[channel]
antennas = 1
sigma_delta_degrees = 6.0
[sweep]
start_db = 0
stop_db = 30
step_db = 2
kinds = asymptotic
[run]
master_seed = 7
parallelism = 1
[output]
csv = {csv}
cache_dir = {cache}
"""


def make_config(tmp_path, **overrides):
    text = BASIC_CONFIG.format(csv=tmp_path / "out.csv", cache=tmp_path / "cache")
    config = parse_config(text)
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


class TestConfigParsing:
    def test_roundtrip_canonical(self, tmp_path):
        config = make_config(tmp_path)
        assert parse_config(canonical_text(config)) == config
        # canonical form is a fixed point
        assert canonical_text(parse_config(canonical_text(config))) == canonical_text(config)

    def test_unknown_section(self):
        with pytest.raises(UsageError, match="line 1"):
            parse_config("[bogus]\nx = 1\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_config("[channel]\nbogus_key = 1\n")

    def test_bad_value_with_line(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_config("[channel]\nantennas = two\n")

    def test_key_outside_section(self):
        with pytest.raises(UsageError, match="line 1"):
            parse_config("antennas = 1\n")

    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown bound kind"):
            parse_config("[sweep]\nkinds = U, nonsense\n")

    def test_repeated_kind(self):
        with pytest.raises(UsageError, match="'asymptotic' is listed more than once"):
            parse_config("[sweep]\nkinds = asymptotic, U_s, asymptotic\n")

    def test_nonunitary_requires_matrix(self):
        message = r"^nonunitary kinds require an h_matrix file in \[channel\]$"
        with pytest.raises(UsageError, match=message):
            parse_config("[sweep]\nkinds = nonunitary_upper\n")
        # a config built directly is held to the same rule
        with pytest.raises(UsageError, match=message):
            ExperimentConfig(kinds=("nonunitary_upper",))

    @pytest.mark.parametrize(
        "key, low",
        [
            ("q_levels", 8),
            ("block_length", 100),
            ("n_blocks", 2),
            ("n_samples", 100),
            ("past_window", 100),
        ],
    )
    def test_budget_below_minimum(self, key, low):
        # every row using the field would reject this value at compute time
        with pytest.raises(UsageError, match=f"line 2: bad value for '{key}': must be >= {low}"):
            parse_config(f"[mc]\n{key} = {low - 1}\n")
        with pytest.raises(UsageError, match=f"^bad value for '{key}': must be >= {low}"):
            ExperimentConfig(**{key: low - 1})
        assert getattr(parse_config(f"[mc]\n{key} = {low}\n"), key) == low

    def test_q_levels_must_be_a_multiple_of_4(self):
        # the mixture rows read the phase grid a quarter turn on
        with pytest.raises(
            UsageError, match="line 2: bad value for 'q_levels': must be a multiple of 4, got 202"
        ):
            parse_config("[mc]\nq_levels = 202\n")
        assert parse_config("[mc]\nq_levels = 204\n").q_levels == 204

    def test_negative_parallelism(self):
        # it would silently mean all cores, as 0 does
        with pytest.raises(UsageError, match="line 2: bad value for 'parallelism': must be >= 0"):
            parse_config("[run]\nparallelism = -3\n")
        assert parse_config("[run]\nparallelism = 0\n").parallelism == 0

    def test_block_must_outlast_the_burn_in(self):
        # a U block keeps at least 64 samples after its past window; QAM
        # rows have no burn-in, so their config is not refused
        text = "[sweep]\nkinds = {}\n[mc]\nblock_length = {}\npast_window = 200\n"
        message = r"^block_length must be >= past_window \+ 64$"
        with pytest.raises(UsageError, match=message):
            parse_config(text.format("qam_lower, U", 263))
        with pytest.raises(UsageError, match=message):
            ExperimentConfig(kinds=("U",), block_length=250, past_window=200)
        assert parse_config(text.format("U", 264)).block_length == 264
        assert parse_config(text.format("qam_lower", 263)).block_length == 263

    @pytest.mark.parametrize(
        "key, value",
        itertools.product(
            ("sigma_delta_degrees", "start_db", "stop_db", "step_db"), ("nan", "inf", "-inf")
        ),
    )
    def test_non_finite_value(self, key, value):
        section = "channel" if key == "sigma_delta_degrees" else "sweep"
        with pytest.raises(UsageError, match=f"line 2: bad value for '{key}': must be finite"):
            parse_config(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(UsageError, match=f"^bad value for '{key}': must be finite"):
            ExperimentConfig(**{key: float(value)})

    def test_nonpositive_step(self):
        with pytest.raises(UsageError, match="line 2: bad value for 'step_db': must be > 0"):
            parse_config("[sweep]\nstep_db = 0\n")
        # built directly, a zero step would divide by zero in the grid and a
        # negative one would sweep nothing
        for step in (0, -2):
            with pytest.raises(UsageError, match="^bad value for 'step_db': must be > 0"):
                ExperimentConfig(step_db=step)

    def test_stop_below_start(self):
        with pytest.raises(UsageError, match="stop_db must be >= start_db"):
            parse_config("[sweep]\nstart_db = 10\nstop_db = 5\n")
        with pytest.raises(UsageError, match="stop_db must be >= start_db"):
            ExperimentConfig(start_db=10, stop_db=5)

    def test_unknown_constellation(self):
        with pytest.raises(UsageError, match="unknown constellation 'apsk32'"):
            parse_config("[mc]\nconstellation = apsk32\n")
        assert parse_config("[mc]\nconstellation = psk8\n").constellation == "psk8"

    def test_matrix_size_must_match_antennas(self, tmp_path):
        h_path = tmp_path / "h.txt"
        h_path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        text = f"[channel]\nantennas = 2\nh_matrix = {h_path}\n[sweep]\nkinds = nonunitary_upper\n"
        with pytest.raises(UsageError, match="must be 2x2"):
            parse_config(text)
        assert parse_config(text.replace("antennas = 2", "antennas = 3")).antennas == 3

    def test_rank_deficient_matrix(self, tmp_path):
        h_path = tmp_path / "h.txt"
        h_path.write_text("1 1\n1 1\n")
        with pytest.raises(RankError):
            parse_config(
                f"[channel]\nantennas = 2\nh_matrix = {h_path}\n"
                "[sweep]\nkinds = nonunitary_lower\n"
            )

    def test_comments_ignored(self):
        config = parse_config("# top\n[channel]\nantennas = 2  # inline\n")
        assert config.antennas == 2


class TestSeedDerivation:
    def test_pure_function(self):
        assert derive_seed(7, "U", 10.0) == derive_seed(7, "U", 10.0)

    def test_distinct_across_inputs(self):
        seeds = {
            derive_seed(7, "U", 10.0),
            derive_seed(7, "U", 12.0),
            derive_seed(7, "U_s", 10.0),
            derive_seed(8, "U", 10.0),
        }
        assert len(seeds) == 4


def cells_but_runtime(path):
    """The CSV rows as dicts, without the row run times."""
    with open(path, newline="") as fh:
        return [dict(row, runtime_s=None) for row in csv.DictReader(fh)]


class TestRunSweep:
    def test_asymptotic_sweep_rows(self, tmp_path):
        config = make_config(tmp_path)
        path, failed = run_sweep(config)
        assert failed == 0
        lines = open(path).read().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 16
        values = [float(r[2]) for r in rows]
        snrs = [float(r[0]) for r in rows]
        assert snrs == sorted(snrs)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rerun_byte_identical(self, tmp_path):
        config = make_config(tmp_path)
        path, _ = run_sweep(config)
        first = open(path, "rb").read()
        path2, _ = run_sweep(config)
        assert open(path2, "rb").read() == first

    def test_fresh_cache_same_values(self, tmp_path):
        c1 = make_config(tmp_path, cache_dir=str(tmp_path / "cache1"), csv_path=str(tmp_path / "a.csv"))
        c2 = make_config(tmp_path, cache_dir=str(tmp_path / "cache2"), csv_path=str(tmp_path / "b.csv"))
        p1, _ = run_sweep(c1)
        p2, _ = run_sweep(c2)
        assert cells_but_runtime(p1) == cells_but_runtime(p2)

    def test_cache_invalidation_only_affected_rows(self, tmp_path):
        config = make_config(
            tmp_path,
            kinds=("asymptotic", "qam_lower"),
            start_db=10.0,
            stop_db=12.0,
            step_db=2.0,
            block_length=120,
            n_blocks=2,
            q_levels=32,
            constellation="qam16",
        )
        run_sweep(config)
        asym_keys = {row_cache_key(config, "asymptotic", s) for s in (10.0, 12.0)}
        qam_keys = {row_cache_key(config, "qam_lower", s) for s in (10.0, 12.0)}
        from dataclasses import replace

        altered = replace(config, block_length=140)
        assert {row_cache_key(altered, "asymptotic", s) for s in (10.0, 12.0)} == asym_keys
        assert {row_cache_key(altered, "qam_lower", s) for s in (10.0, 12.0)}.isdisjoint(qam_keys)
        cached_before = set(os.listdir(config.cache_dir))
        run_sweep(altered)
        cached_after = set(os.listdir(config.cache_dir))
        assert cached_before < cached_after
        assert len(cached_after - cached_before) == 2  # only the qam rows recomputed

    def test_parallel_matches_serial(self, tmp_path):
        serial = make_config(
            tmp_path,
            kinds=("asymptotic", "memoryless_plus_corr"),
            start_db=10.0,
            stop_db=14.0,
            step_db=2.0,
            parallelism=1,
            cache_dir=str(tmp_path / "cs"),
            csv_path=str(tmp_path / "s.csv"),
        )
        parallel = make_config(
            tmp_path,
            kinds=("asymptotic", "memoryless_plus_corr"),
            start_db=10.0,
            stop_db=14.0,
            step_db=2.0,
            parallelism=2,
            cache_dir=str(tmp_path / "cp"),
            csv_path=str(tmp_path / "p.csv"),
        )
        p1, _ = run_sweep(serial)
        p2, _ = run_sweep(parallel)
        assert cells_but_runtime(p1) == cells_but_runtime(p2)

    def test_nonunitary_kinds_end_to_end(self, tmp_path):
        h_path = tmp_path / "h.txt"
        h_path.write_text("1.0+0.0j 0.3+0.1j\n0.1-0.2j 0.8+0.0j\n")
        config = make_config(
            tmp_path,
            antennas=2,
            h_source=str(h_path),
            kinds=("nonunitary_upper", "nonunitary_lower"),
            start_db=14.0,
            stop_db=14.0,
            step_db=2.0,
            block_length=300,
            n_blocks=2,
            q_levels=64,
            past_window=100,
            constellation="qam16",
            parallelism=1,
        )
        path, failed = run_sweep(config)
        assert failed == 0
        rows = {ln.split(",")[1]: ln.split(",") for ln in open(path).read().splitlines()[1:]}
        upper = float(rows["nonunitary_upper"][2])
        lower = float(rows["nonunitary_lower"][2])
        assert lower < upper
        assert float(rows["nonunitary_upper"][0]) == 14.0

    @pytest.mark.parametrize("kind", ["nonunitary_lower", "nonunitary_upper"])
    def test_nonunitary_row_is_the_unitary_row_at_the_shifted_snr(self, tmp_path, kind):
        # general H enters only as an SNR scale: lambda_min of H^H H for the
        # lower bound, lambda_max for the upper, on the H = I channel
        config = make_config(
            tmp_path,
            antennas=2,
            h_source=H_EXAMPLE,
            kinds=(kind,),
            block_length=300,
            n_blocks=2,
            q_levels=64,
            past_window=100,
            constellation="qam16",
        )
        snr_db = 14.0
        row = cli.compute_row(asdict(config), kind, snr_db)
        lam_min, lam_max = singular_value_bounds(load_channel_matrix(H_EXAMPLE))
        assert lam_min < 1.0 < lam_max
        seed = derive_seed(config.master_seed, kind, snr_db)
        sigma = config.sigma_delta_radians()
        snr = 10.0 ** (snr_db / 10.0)
        if kind == "nonunitary_lower":
            est = qam_rate(
                ChannelParams(2, sigma, lam_min * snr),
                qam_constellation(16),
                64,
                300,
                2,
                seed,
            )
            expected = (est.value_bits, est.std_error_bits, None, None)
        else:
            rec = upper_bound_U(
                ChannelParams(2, sigma, lam_max * snr),
                q_levels=64,
                block_length=300,
                n_blocks=2,
                past_window=100,
                seed=seed,
            )
            expected = (rec.value_bits, rec.std_error_bits, rec.opt_alpha, rec.opt_xi)
        assert row["kind"] == kind
        assert (row["value_bits"], row["std_error_bits"], row["opt_alpha"], row["opt_xi"]) == expected

    def test_u_s_past_the_bessel_range_is_a_failed_row(self, tmp_path):
        config = asdict(make_config(tmp_path, kinds=("U_s",), n_samples=1000))
        # values with the unit kappa tables, the closed-form E log and e2's
        # fixed rule, master seed 7; g(alpha*, xi) peaks near xi = 21.6 as
        # well as at sqrt(rho), and both peaks enter the bound
        for snr_db, bits in ((84.0, 17.233778216691825), (86.0, 17.56868829469114)):
            row = cli.compute_row(config, "U_s", snr_db)
            assert row["value_bits"] == pytest.approx(bits, abs=1e-12)
        row = cli.compute_row(config, "U_s", 90.0)
        assert row["kind"] == "failed"
        assert row["error"].startswith("U_s: NumericUnderflowError: von Mises kappa")

    @staticmethod
    def failing_memoryless_config(tmp_path, monkeypatch):
        from phasecap import bounds as bounds_mod
        from phasecap.errors import NumericUnderflowError

        def boom(*args, **kwargs):
            raise NumericUnderflowError("synthetic failure, with a comma")

        monkeypatch.setattr(bounds_mod, "memoryless_plus_correction", boom)
        return make_config(
            tmp_path,
            kinds=("memoryless_plus_corr",),
            start_db=10.0,
            stop_db=10.0,
            step_db=2.0,
            parallelism=1,
        )

    def test_failed_row_recorded(self, tmp_path, monkeypatch):
        config = self.failing_memoryless_config(tmp_path, monkeypatch)
        seen = []
        path, failed = run_sweep(config, progress=lambda kind, snr, row: seen.append(row))
        assert failed == 1
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["kind"] == "failed"
        # the real kind leads the reason, and its comma is quoted
        expected = "memoryless_plus_corr: NumericUnderflowError: synthetic failure, with a comma"
        assert row["error"] == seen[0]["error"] == expected
        # the failed row is in the CSV but not in the cache
        assert os.listdir(config.cache_dir) == []

    def test_failed_row_is_retried(self, tmp_path, monkeypatch):
        config = self.failing_memoryless_config(tmp_path, monkeypatch)
        assert run_sweep(config)[1] == 1
        monkeypatch.undo()
        path, failed = run_sweep(config)
        assert failed == 0
        cells = open(path).read().splitlines()[1].split(",")
        assert cells[1] == "memoryless_plus_corr"
        assert np.isfinite(float(cells[2]))
        assert os.listdir(config.cache_dir) == [
            row_cache_key(config, "memoryless_plus_corr", 10.0) + ".json"
        ]

    def test_rows_before_a_raising_row_are_cached(self, tmp_path, monkeypatch):
        # the qam_lower rows raise; the asymptotic rows computed before them
        # must already be in the cache
        def boom(*args, **kwargs):
            raise ConfigurationError("synthetic configuration error")

        monkeypatch.setattr(cli.inforate, "qam_rate", boom)
        config = make_config(
            tmp_path,
            kinds=("asymptotic", "qam_lower"),
            start_db=10.0,
            stop_db=12.0,
            step_db=2.0,
        )
        with pytest.raises(ConfigurationError):
            run_sweep(config)
        cached = {name[:-len(".json")] for name in os.listdir(config.cache_dir)}
        assert cached == {row_cache_key(config, "asymptotic", s) for s in (10.0, 12.0)}

    def test_stale_version_misses_the_cache(self, tmp_path, monkeypatch):
        config = make_config(tmp_path, start_db=10.0, stop_db=10.0)
        run_sweep(config)
        # mark the cached version-0 row, so that serving it would show
        key = row_cache_key(config, "asymptotic", 10.0)
        stale = os.path.join(config.cache_dir, key + ".json")
        with open(stale) as fh:
            row = json.load(fh)
        with open(stale, "w") as fh:
            json.dump(dict(row, value_bits=-1.0), fh)
        path, _ = run_sweep(config)
        assert open(path).read().splitlines()[1].split(",")[2] == "-1.0"

        bumped = cli.KINDS["asymptotic"]._replace(version=1)
        monkeypatch.setitem(cli.KINDS, "asymptotic", bumped)
        path, _ = run_sweep(config)
        assert float(open(path).read().splitlines()[1].split(",")[2]) == row["value_bits"]
        assert len(os.listdir(config.cache_dir)) == 2

    def test_version_zero_keys_predate_versioning(self, tmp_path):
        # the key of the committed acceptance row asymptotic at M=1, 10 dB;
        # the payload of a version-0 kind carries no version field
        config = make_config(tmp_path, master_seed=20260809)
        assert cli.KINDS["asymptotic"].version == 0
        assert row_cache_key(config, "asymptotic", 10.0) == "6339bce2175bbf9dd2faedb321e236f3"

    def test_kinds_sharing_a_compute_share_a_version(self):
        # a numerics change to a compute function moves every kind that calls it
        shared = [
            (a, b)
            for a, b in itertools.combinations(cli.KINDS, 2)
            if cli.KINDS[a].compute is cli.KINDS[b].compute
        ]
        assert shared == [("U", "nonunitary_upper"), ("qam_lower", "nonunitary_lower")]
        for a, b in shared:
            assert cli.KINDS[a].version == cli.KINDS[b].version

    @pytest.mark.parametrize("kind", list(cli.KINDS))
    def test_compute_takes_exactly_the_cache_key_fields(self, kind):
        # a compute cannot read a config field that its row's cache key leaves out
        spec = cli.KINDS[kind]
        config = ExperimentConfig()
        key_fields = {f: getattr(config, f) for f in spec.fields}
        signature = inspect.signature(spec.compute)
        signature.bind(None, 0, **key_fields)
        for f in spec.fields:
            with pytest.raises(TypeError):
                signature.bind(None, 0, **{g: v for g, v in key_fields.items() if g != f})
        with pytest.raises(TypeError):
            signature.bind(None, 0, master_seed=config.master_seed, **key_fields)


    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers inherit the patched bound only when forked",
    )
    def test_parallel_rows_after_a_raising_row_are_cached(self, tmp_path, monkeypatch):
        from phasecap import bounds as bounds_mod

        def boom(*args, **kwargs):
            raise DomainError("synthetic domain error")

        monkeypatch.setattr(bounds_mod, "memoryless_plus_correction", boom)
        config = make_config(
            tmp_path,
            kinds=("memoryless_plus_corr", "asymptotic"),
            start_db=10.0,
            stop_db=12.0,
            step_db=2.0,
            parallelism=2,
        )
        with pytest.raises(DomainError, match="synthetic domain error"):
            run_sweep(config)
        cached = {name[:-len(".json")] for name in os.listdir(config.cache_dir)}
        assert cached == {row_cache_key(config, "asymptotic", s) for s in (10.0, 12.0)}


class TestMainEntry:
    def test_spacing_command(self, capsys):
        rc = cli.main(["spacing", "--freq-ghz", "80", "--range-m", "500", "--antennas", "2"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.9679, abs=1e-3)

    def test_gap_command(self, capsys):
        rc = cli.main(["gap", "--antennas", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1.418939" in out

    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASIC_CONFIG.format(csv=tmp_path / "o.csv", cache=tmp_path / "cc"))
        assert cli.main(["validate", str(cfg)]) == 0
        assert "[channel]" in capsys.readouterr().out

    def test_validate_resolves_h_matrix_against_the_config_file(self, tmp_path, monkeypatch, capsys):
        # the example names h_example.txt, beside it; run from elsewhere
        example = os.path.join(CONFIGS, "nonunitary_example.cfg")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["validate", example]) == 0
        assert f"h_matrix = {H_EXAMPLE}\n" in capsys.readouterr().out
        # config text alone is read relative to the working directory
        with open(example) as fh, pytest.raises(FileNotFoundError):
            parse_config(fh.read())

    def test_failed_row_exit_code(self, tmp_path, monkeypatch, capsys):
        config = TestRunSweep.failing_memoryless_config(tmp_path, monkeypatch)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(canonical_text(config))
        assert cli.main(["sweep", str(cfg)]) == 2
        # one stderr line per failed row: its SNR, kind and reason
        assert capsys.readouterr().err.splitlines() == [
            "row at 10 dB failed: memoryless_plus_corr: NumericUnderflowError: "
            "synthetic failure, with a comma"
        ]

    def test_validate_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[channel]\nantennas = -3\n")
        assert cli.main(["validate", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    def test_validate_non_finite_value(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[channel]\nsigma_delta_degrees = inf\n")
        assert cli.main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: bad value for 'sigma_delta_degrees': must be finite, got inf\n"
        )

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_validate_non_finite_h_matrix(self, tmp_path, capsys, entry):
        # a non-finite H used to give nan eigenvalues, a nan SNR and rows
        # that failed with a misleading underflow
        h_path = tmp_path / "h.txt"
        h_path.write_text(f"1 0\n0 {entry}\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            BASIC_CONFIG.format(csv=tmp_path / "o.csv", cache=tmp_path / "cc")
            .replace("antennas = 1", f"antennas = 2\nh_matrix = {h_path}")
            .replace("kinds = asymptotic", "kinds = nonunitary_upper, nonunitary_lower")
        )
        assert cli.main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {h_path}:2: non-finite entry in '0 {entry}'\n"

    def test_h_matrix_is_read_only_by_nonunitary_kinds(self, tmp_path, capsys):
        # a config whose kinds never read H sweeps with a missing h_matrix,
        # and naming the file moves none of their cache keys
        text = BASIC_CONFIG.format(csv=tmp_path / "o.csv", cache=tmp_path / "cc")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text.replace("[channel]\n", "[channel]\nh_matrix = missing.txt\n"))
        assert cli.main(["sweep", str(cfg)]) == 0
        named, plain = cli.parse_config_file(str(cfg)), parse_config(text)
        assert named.h_source != plain.h_source
        keys = {row_cache_key(plain, "asymptotic", snr) + ".json" for snr in plain.snr_grid_db()}
        assert set(os.listdir(tmp_path / "cc")) == keys
        for kind in (k for k, spec in cli.KINDS.items() if spec.snr_scale is None):
            assert row_cache_key(named, kind, 10.0) == row_cache_key(plain, kind, 10.0)

    def test_missing_config_file(self, capsys):
        assert cli.main(["validate", "/nonexistent/x.cfg"]) == 1

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASIC_CONFIG.format(csv=tmp_path / "o.csv", cache=tmp_path / "cc"))
        assert cli.main(["sweep", str(cfg)]) == 0
        csv_path = capsys.readouterr().out.strip().splitlines()[-1]
        assert os.path.exists(csv_path)
        # the CSV is the only output: there is no plot command
        assert cli.main(["plot", csv_path, "--figure", "1"]) == 1

    def test_sweep_verbose_progress(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            BASIC_CONFIG.format(csv=tmp_path / "o.csv", cache=tmp_path / "cc").replace(
                "stop_db = 30", "stop_db = 4"
            )
        )
        assert cli.main(["sweep", str(cfg), "-v"]) == 0
        out = capsys.readouterr().out
        assert "asymptotic" in out and "bits" in out

    def test_rank_deficient_matrix_exit_code(self, tmp_path, capsys):
        h_path = tmp_path / "h.txt"
        h_path.write_text("1 1\n1 1\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            BASIC_CONFIG.format(csv=tmp_path / "o.csv", cache=tmp_path / "cc")
            .replace("antennas = 1", f"antennas = 2\nh_matrix = {h_path}")
            .replace("kinds = asymptotic", "kinds = nonunitary_upper")
        )
        assert cli.main(["sweep", str(cfg)]) == 1
        assert "rank deficient" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert cli.main(["sweep"]) == 1
