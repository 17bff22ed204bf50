"""The benchmark's workloads: which sweep rows each one computes, and why.

Every row uses the figure budgets of ``configs/fig1.cfg``/``fig2.cfg`` and
an SNR from their grid (even dB in 10-30), so each row has a committed
reference at the acceptance master seed. The rows span low, mid and high
SNR at both antenna counts.

- ``bounds``: asymptotic, memoryless_plus_corr, U_s and U, the kinds of
  one SNR side by side as in the figure sweeps. Its time is in the duality
  optimizer, the quadratures, the one-step entropy (U_s) and, for U, one
  ``PredictiveEnsemble.cond_entropy`` call per new xi plus 1-4 pilot
  recursions (adaptive window doubling). The duality kinds run no forward
  recursion, and no kind runs the QAM mixture rows.
- ``qam``: qam_lower. Its time is in the forward recursion, the mixture
  rows and the channel simulation; no quadrature or optimizer call.

On one core of a 2-vCPU x86-64 VM a cold pass takes 30-40 s for either
workload. The run-to-run spread there comes from the host and shrinks
only slowly with run length, so the benchmark has two long workloads
rather than more short ones.
"""

ACCEPTANCE_SEED = 20260809

FIGURE_BUDGETS = {
    "n_samples": 100_000,
    "block_length": 2000,
    "n_blocks": 4,
    "q_levels": 200,
    "past_window": 200,
    "constellation": "qam64",
}

# Kinds whose value does not depend on the seed; checked to 1e-9 bits.
DETERMINISTIC_KINDS = ("asymptotic", "memoryless_plus_corr")
DETERMINISTIC_TOL_BITS = 1e-9
# Monte Carlo kinds may move by this share of their reference std error.
MC_TOL_SE = 0.1

# workload -> sweeps of (antennas, SNR points in dB, kinds). The SNR points
# of one sweep form a regular grid, as `phasecap sweep` requires.
WORKLOADS = {
    "bounds": (
        (1, (20,), ("asymptotic", "memoryless_plus_corr", "U_s", "U")),
        (2, (10,), ("asymptotic", "memoryless_plus_corr", "U_s")),
        (2, (30,), ("asymptotic", "memoryless_plus_corr", "U_s", "U")),
    ),
    "qam": (
        (1, (10, 20, 30), ("qam_lower",)),
        (2, (10, 20, 30), ("qam_lower",)),
    ),
}

CONFIG_TEMPLATE = """\
[channel]
antennas = {antennas}
sigma_delta_degrees = 6.0
[sweep]
start_db = {start}
stop_db = {stop}
step_db = {step}
kinds = {kinds}
[mc]
n_samples = {n_samples}
block_length = {block_length}
n_blocks = {n_blocks}
q_levels = {q_levels}
past_window = {past_window}
constellation = {constellation}
[run]
master_seed = {master_seed}
parallelism = 1
[output]
csv = {csv}
cache_dir = {cache_dir}
"""


def config_texts(workload, master_seed, work_dir, budgets=FIGURE_BUDGETS):
    """Config texts of the workload's sweeps, in the order they run."""
    texts = []
    for i, (antennas, snrs, kinds) in enumerate(WORKLOADS[workload]):
        step = snrs[1] - snrs[0] if len(snrs) > 1 else 1
        texts.append(
            CONFIG_TEMPLATE.format(
                antennas=antennas,
                start=snrs[0],
                stop=snrs[-1],
                step=step,
                kinds=", ".join(kinds),
                master_seed=master_seed,
                csv=f"{work_dir}/sweep{i}.csv",
                cache_dir=f"{work_dir}/cache",
                **budgets,
            )
        )
    return texts


def row_key(kind, antennas, snr_db, master_seed):
    return f"{kind}|M{int(antennas)}|{float(snr_db):g}dB|{int(master_seed)}"


def check_rows(rows, reference):
    """Compare computed rows with the stored reference.

    Returns (rows_failed, reference_applied). A row fails when it came back
    failed or moved off its reference by more than the tolerance of its
    kind. `reference_applied` is False when some row has no stored value.
    Each checked row gets its distance from the reference as
    `off_reference_bits`.
    """
    failed = 0
    applied = True
    for row in rows:
        if row["failed"]:
            failed += 1
            continue
        ref = reference.get(row_key(row["kind"], row["antennas"], row["snr_db"], row["master_seed"]))
        if ref is None:
            applied = False
            continue
        if row["kind"] in DETERMINISTIC_KINDS:
            tol = DETERMINISTIC_TOL_BITS
        else:
            tol = MC_TOL_SE * ref["std_error_bits"]
        row["off_reference_bits"] = row["value_bits"] - ref["value_bits"]
        if not abs(row["off_reference_bits"]) <= tol:
            failed += 1
    return failed, applied
