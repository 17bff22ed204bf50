"""Experiment runner: config files, SNR sweeps, caching, CSV.

Config format is flat ``key = value`` lines under bracketed section
headers; angles are taken in degrees at this boundary and converted once.
Every per-task seed is a pure function of (master_seed, kind, snr_db), so
reruns are deterministic and rows can be computed in any order.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import inforate
from .channel import (
    ChannelParams,
    constellation_by_name,
    load_channel_matrix,
    los_antenna_spacing,
    singular_value_bounds,
    wavelength_from_ghz,
)
from .entropy import LN2, MIN_N_SAMPLES, clear_tables
from .errors import (
    ConfigurationError,
    DomainError,
    NumericUnderflowError,
    OptimizationError,
    SchemaError,
    UsageError,
)

CSV_COLUMNS = (
    "snr_db",
    "kind",
    "value_bits",
    "std_error_bits",
    "opt_alpha",
    "opt_xi",
    "n_samples",
    "seed",
    "runtime_s",
    "error",  # empty, or the reason of a failed row: "<kind>: <exception>: <message>"
)


def _parse_kinds(text):
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    if not kinds:
        raise UsageError("kinds list is empty")
    for i, k in enumerate(kinds):
        if k not in KINDS:
            raise UsageError(f"unknown bound kind {k!r}; valid kinds: {', '.join(KINDS)}")
        if k in kinds[:i]:
            raise UsageError(f"bound kind {k!r} is listed more than once")
    return kinds


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _bounded(parse, low, strict=False):
    """`parse`, then reject values below `low` (or equal to it, if strict)."""
    def parse_bounded(text):
        value = parse(text)
        if not (value > low if strict else value >= low):
            raise ValueError(f"must be {'>' if strict else '>='} {low}, got {value}")
        return value

    return parse_bounded


def _parse_q_levels(text):
    value = _bounded(int, inforate.MIN_Q_LEVELS)(text)
    if value % inforate.Q_LEVELS_MULTIPLE:
        raise ValueError(f"must be a multiple of {inforate.Q_LEVELS_MULTIPLE}, got {value}")
    return value


def _parse_constellation(text):
    constellation_by_name(text)  # raises ValueError for a label it cannot build
    return text


def _option(default, section, parse, key=None):
    """A config field set by `key = value` (key defaults to the field name) under [section].
    `parse` rejects what every row using the field would reject."""
    return field(default=default, metadata={"section": section, "key": key, "parse": parse})


def _file_key(f):
    return f.metadata["key"] or f.name


def _file_text(value):
    """A field value as a config file writes it."""
    return ", ".join(value) if isinstance(value, tuple) else str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed sweep configuration. Each field declares where a config file
    sets it and how its value is parsed; the fields are in canonical order.
    A config built directly is checked too: each field keeps what its parser
    reads from the value's file text, as a parsed file's does, and the rules
    across fields hold. `parse_config` alone reads the H file that
    nonunitary kinds name."""

    antennas: int = _option(1, "channel", _bounded(int, 1))
    sigma_delta_degrees: float = _option(6.0, "channel", _bounded(_finite_float, 0, strict=True))
    h_source: str = _option("unitary", "channel", str, key="h_matrix")
    start_db: float = _option(10.0, "sweep", _finite_float)
    stop_db: float = _option(30.0, "sweep", _finite_float)
    step_db: float = _option(2.0, "sweep", _bounded(_finite_float, 0, strict=True))
    kinds: tuple = _option(("asymptotic",), "sweep", _parse_kinds)
    n_samples: int = _option(100_000, "mc", _bounded(int, MIN_N_SAMPLES))
    block_length: int = _option(2000, "mc", _bounded(int, inforate.MIN_BLOCK_LENGTH))
    n_blocks: int = _option(4, "mc", _bounded(int, inforate.MIN_N_BLOCKS))
    q_levels: int = _option(200, "mc", _parse_q_levels)
    past_window: int = _option(200, "mc", _bounded(int, inforate.MIN_PAST_WINDOW))
    constellation: str = _option("qam64", "mc", _parse_constellation)
    master_seed: int = _option(1, "run", int)
    parallelism: int = _option(0, "run", _bounded(int, 0))
    csv_path: str = _option("results.csv", "output", str, key="csv")
    cache_dir: str = _option(".phasecap-cache", "output", str)

    def __post_init__(self):
        for f in fields(self):
            try:
                value = f.metadata["parse"](_file_text(getattr(self, f.name)))
            except ValueError as exc:
                raise UsageError(f"bad value for {_file_key(f)!r}: {exc}") from exc
            object.__setattr__(self, f.name, value)  # frozen
        if self.stop_db < self.start_db:
            raise UsageError("stop_db must be >= start_db")
        uses_pilots = any("past_window" in KINDS[k].fields for k in self.kinds)
        if uses_pilots and self.block_length < self.past_window + inforate.MIN_KEPT_STEPS:
            raise UsageError(f"block_length must be >= past_window + {inforate.MIN_KEPT_STEPS}")
        if self.h_source == "unitary" and any(KINDS[k].snr_scale is not None for k in self.kinds):
            raise UsageError("nonunitary kinds require an h_matrix file in [channel]")

    def snr_grid_db(self):
        count = int(round((self.stop_db - self.start_db) / self.step_db)) + 1
        grid = self.start_db + self.step_db * np.arange(count)
        return [float(s) for s in grid if s <= self.stop_db + 1e-9]

    def sigma_delta_radians(self):
        return float(np.deg2rad(self.sigma_delta_degrees))


def parse_config(text, base_dir=""):
    """Parse config text; raises UsageError with line numbers on bad input.
    A relative h_matrix path is joined to `base_dir` (default: the working directory)."""
    table = {(f.metadata["section"], _file_key(f)): f for f in fields(ExperimentConfig)}
    sections = {sec for sec, _ in table}
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in sections:
                raise UsageError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise UsageError(f"line {lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if (section, key) not in table:
            raise UsageError(f"line {lineno}: unknown key {key!r} in [{section}]")
        f = table[(section, key)]
        try:
            values[f.name] = f.metadata["parse"](val.strip())
        except ValueError as exc:
            raise UsageError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    if values.get("h_source", "unitary") != "unitary":
        values["h_source"] = os.path.join(base_dir, values["h_source"])
    config = ExperimentConfig(**values)
    if any(KINDS[kind].snr_scale is not None for kind in config.kinds):
        h = load_channel_matrix(config.h_source)  # square, or SchemaError
        if h.shape[0] != config.antennas:
            raise UsageError(f"h_matrix must be {config.antennas}x{config.antennas}, got {h.shape}")
        singular_value_bounds(h)  # RankError if H is rank deficient
    return config


def parse_config_file(path):
    """Parse a config file; a relative h_matrix path is taken relative to it."""
    with open(path) as fh:
        return parse_config(fh.read(), os.path.dirname(path))


def canonical_text(config):
    """Canonical config serialization; parse(canonical(parse(s))) == parse(s)."""
    lines, section = [], None
    for f in fields(ExperimentConfig):
        if f.metadata["section"] != section:
            section = f.metadata["section"]
            lines.append(f"[{section}]")
        lines.append(f"{_file_key(f)} = {_file_text(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def derive_seed(master_seed, kind, snr_db):
    """Per-task seed: a pure function of (master_seed, kind, snr_db)."""
    digest = hashlib.sha256(f"{master_seed}|{kind}|{snr_db:.6f}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _h_fingerprint(config):
    if config.h_source == "unitary":
        return "unitary"
    with open(config.h_source, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def row_cache_key(config, kind, snr_db):
    payload = {
        "kind": kind,
        "snr_db": round(float(snr_db), 6),
        "antennas": config.antennas,
        "sigma_delta_degrees": config.sigma_delta_degrees,
        "h": _h_fingerprint(config) if KINDS[kind].snr_scale is not None else "unitary",
        "master_seed": config.master_seed,
    }
    for name in KINDS[kind].fields:
        payload[name] = getattr(config, name)
    if KINDS[kind].version:  # version 0 is left out, so those keys predate versioning
        payload["version"] = KINDS[kind].version
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _atomic_write(path, data):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The bound and rate functions are looked up at call time, so that a patched
# module attribute is the one a row calls.
def _asymptotic(params, seed):
    return bounds_mod.asymptotic_capacity(params)


def _memoryless_plus_corr(params, seed):
    return bounds_mod.memoryless_plus_correction(params)


def _upper_U(params, seed, block_length, n_blocks, q_levels, past_window):
    return bounds_mod.upper_bound_U(
        params,
        q_levels=q_levels,
        block_length=block_length,
        n_blocks=n_blocks,
        past_window=past_window,
        seed=seed,
    )


def _upper_Us(params, seed, n_samples):
    return bounds_mod.upper_bound_Us(params, n_samples=n_samples, seed=seed)


def _qam_lower(params, seed, block_length, n_blocks, q_levels, constellation):
    return inforate.qam_rate(
        params, constellation_by_name(constellation), q_levels, block_length, n_blocks, seed
    )


class Kind(NamedTuple):
    """How the sweep computes one kind of row.

    `compute(params, seed, **{f: getattr(config, f) for f in fields})`
    returns the row's `BoundRecord`. Its parameters beyond (params, seed)
    are exactly `fields`, so a compute that reads a config field its cache
    key leaves out cannot be called.
    """

    fields: tuple  # config fields in the row's cache key, beyond the common ones
    snr_scale: object  # None, or max/min: the SNR is scaled by that eigenvalue of H^H H
    compute: object  # (params, seed, **fields) -> BoundRecord
    version: int = 0  # numerics version, bumped whenever the kind's rows change


_U_FIELDS = ("block_length", "n_blocks", "q_levels", "past_window")
_QAM_FIELDS = ("block_length", "n_blocks", "q_levels", "constellation")

KINDS = {
    "U": Kind(_U_FIELDS, None, _upper_U, version=12),
    "U_s": Kind(("n_samples",), None, _upper_Us, version=10),
    "asymptotic": Kind((), None, _asymptotic),
    "memoryless_plus_corr": Kind((), None, _memoryless_plus_corr, version=5),
    "qam_lower": Kind(_QAM_FIELDS, None, _qam_lower, version=7),
    "nonunitary_upper": Kind(_U_FIELDS, max, _upper_U, version=12),
    "nonunitary_lower": Kind(_QAM_FIELDS, min, _qam_lower, version=7),
}


def compute_row(config_dict, kind, snr_db):
    """Compute one (kind, snr) row from `asdict(config)`. Top-level so worker
    processes can run it. A row whose numerics underflow or whose optimizer
    does not settle comes back as a failed row with its reason."""
    config = ExperimentConfig(**config_dict)
    if kind not in KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    spec = KINDS[kind]
    seed = derive_seed(config.master_seed, kind, snr_db)
    snr = 10.0 ** (snr_db / 10.0)
    started = time.perf_counter()
    row = {"snr_db": float(snr_db), "kind": kind}
    try:
        if spec.snr_scale is not None:
            h = load_channel_matrix(config.h_source)
            snr = spec.snr_scale(singular_value_bounds(h)) * snr
        params = ChannelParams(config.antennas, config.sigma_delta_radians(), snr)
        rec = spec.compute(params, seed, **{f: getattr(config, f) for f in spec.fields})
    except (NumericUnderflowError, OptimizationError) as exc:
        nan = float("nan")
        row.update(kind="failed", error=f"{kind}: {type(exc).__name__}: {exc}")
        row.update(value_bits=nan, std_error_bits=nan, opt_alpha=None, opt_xi=None, n_samples=0)
    else:
        row.update(
            value_bits=float(rec.value_bits),
            std_error_bits=float(rec.std_error_bits),
            opt_alpha=rec.opt_alpha,
            opt_xi=rec.opt_xi,
            n_samples=int(rec.meta.get("n_samples", 0)),
        )
    row.update(seed=int(seed), runtime_s=time.perf_counter() - started)
    return row


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in sorted(rows, key=lambda r: (r["kind"], r["snr_db"])):
        cells = []
        for col in CSV_COLUMNS:
            val = row.get(col)
            if col == "runtime_s" and val is not None:
                cells.append(f"{val:.3f}")
            else:
                cells.append(_format_cell(val))
        writer.writerow(cells)
    return out.getvalue()


def run_sweep(config, progress=None):
    """Execute all (kind, snr) work items, reusing cached rows.

    Returns (csv_path, failed_count). Rows are cached per config hash in an
    append-only directory with atomic replacement, as soon as each is done;
    a failed row goes to the CSV only. A row that raises stops no other
    row: every task runs, then the first exception is re-raised. The U_s
    rows share their kappa tables, which start empty (cleared before any
    worker forks), so a sweep's work does not depend on earlier ones.
    """
    tasks = [(kind, snr) for kind in config.kinds for snr in config.snr_grid_db()]
    cache_dir = config.cache_dir
    os.makedirs(cache_dir, exist_ok=True)

    rows = []
    pending = []
    for kind, snr in tasks:
        key = row_cache_key(config, kind, snr)
        path = os.path.join(cache_dir, key + ".json")
        if os.path.exists(path):
            with open(path) as fh:
                rows.append(json.load(fh))
        else:
            pending.append((kind, snr, path))

    config_dict = asdict(config)
    workers = config.parallelism if config.parallelism > 0 else (os.cpu_count() or 1)
    error = None
    clear_tables()
    with ExitStack() as stack:
        if workers > 1 and len(pending) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            futures = {pool.submit(compute_row, config_dict, *task[:2]): task for task in pending}
            done = ((futures[f], f.result) for f in as_completed(futures))
        else:
            # a serial row is computed by result(), after the previous one is cached
            done = ((task, partial(compute_row, config_dict, *task[:2])) for task in pending)
        for (kind, snr, path), result in done:
            try:
                row = result()
            except Exception as exc:
                error = error or exc
                continue
            if row["kind"] != "failed":  # a failed row is not cached, so a rerun retries it
                _atomic_write(path, json.dumps(row, sort_keys=True))
            rows.append(row)
            if progress is not None:
                progress(kind, snr, row)
    if error is not None:
        raise error

    _atomic_write(config.csv_path, rows_to_csv(rows))
    failed = sum(1 for r in rows if r["kind"] == "failed")
    return config.csv_path, failed


def _cmd_sweep(args):
    config = parse_config_file(args.config)

    def progress(kind, snr, row):
        if row["kind"] == "failed":  # the error text starts with the kind
            print(f"row at {snr:g} dB failed: {row['error']}", file=sys.stderr, flush=True)
        if args.verbose:
            status = "fail" if row["kind"] == "failed" else f"{row['value_bits']:.4f} bits"
            print(f"  {kind:>22s} @ {snr:5.1f} dB -> {status}", flush=True)

    path, failed = run_sweep(config, progress=progress)
    print(path)
    return 2 if failed else 0


def _cmd_spacing(args):
    wavelength = wavelength_from_ghz(args.freq_ghz)
    d = los_antenna_spacing(wavelength, args.range_m, args.antennas)
    print(f"{d:.6g}")
    return 0


def _cmd_gap(args):
    nats = bounds_mod.avg_peak_gap(args.antennas)
    print(f"{nats:.6f} nats ({nats / LN2:.6f} bits)")
    return 0


def _cmd_validate(args):
    config = parse_config_file(args.config)
    sys.stdout.write(canonical_text(config))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phasecap",
        description="Capacity bounds for peak-constrained MIMO Wiener phase-noise channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a bound/rate sweep from a config file")
    p.add_argument("config")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("spacing", help="LoS antenna spacing for a unitary channel")
    p.add_argument("--freq-ghz", type=float, required=True)
    p.add_argument("--range-m", type=float, required=True)
    p.add_argument("--antennas", type=int, required=True)
    p.set_defaults(func=_cmd_spacing)

    p = sub.add_parser("gap", help="high-SNR average-vs-peak capacity gap")
    p.add_argument("--antennas", type=int, required=True)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("validate", help="parse a config and print its canonical form")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, SchemaError, ConfigurationError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
