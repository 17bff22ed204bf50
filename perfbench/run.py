"""Benchmark of cold, full-budget phasecap sweeps.

    python3 perfbench/run.py --workload {bounds,qam} --seed N \\
        --seconds S --trace {0,1} [--master-seed N]

Run from the root of a checkout. Each pass computes the workload's rows
(see workloads.py) one after another through `cli.parse_config` and
`cli.run_sweep`, as `phasecap sweep` does, with `parallelism = 1`, into an
empty row cache, in a fresh interpreter with one BLAS thread. Every row is
checked against perfbench/reference.json.

--trace 0 repeats passes while another fits in --seconds (at least one)
and reports the end-to-end metrics as medians over the passes; setup_s,
the time from interpreter start to the first row, is the median over the
passes and three more interpreters that only import and parse. --trace 1
runs one plain pass, one pass with the layer wrappers of tracing.py, and
the kernel probes of probes.py, and reports the per-layer metrics; it
prints the end-to-end metrics of its plain pass too.

The rows are fixed, so that each has a stored reference: --seed is only
recorded with the result, and no input depends on it. --master-seed is
the sweeps' own seed; the stored reference is for the acceptance seed
20260809 only.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A full result, with the environment,
every row and the kernel values, is written under .perfbench/ in the
checkout, with the spans of a traced pass beside it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Every run must end within 180 s; no worker may outlive this deadline.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "sweep_wall_s": "s",
    "sweep_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ROW_KINDS = ("U", "U_s", "memoryless_plus_corr", "qam_lower")
KERNELS = ("quadrature", "conv_entropies", "ensemble", "cond_entropy", "mixture_rows", "forward_loglik")
PER_LAYER = {
    "cli.runner_overhead_s": "s",
    **{f"row_s.{kind}": "s" for kind in ROW_KINDS},
    "bounds.minimize.self_s": "s",
    "bounds.objective.calls": "count",
    "bounds.xi_evals": "count",
    "mathcore.quadrature.s": "s",
    "mathcore.quadrature.calls": "count",
    "mathcore.quadrature.node_evals": "count",
    "mathcore.quadrature.max_panels_hit": "count",
    "mathcore.panel_nodes.misses": "count",
    "mathcore.panel_nodes.s": "s",
    "entropy.expect_log_noncentral.s": "s",
    "entropy.expect_log_noncentral.calls": "count",
    "entropy.entropy_abs_sq.s": "s",
    "entropy.entropy_abs_sq.calls": "count",
    "entropy.conv_entropies.s": "s",
    "entropy.conv_entropies.kappas": "count",
    "entropy.delta_plus_phase.self_s": "s",
    "inforate.ensemble.s": "s",
    "inforate.ensemble.calls": "count",
    "inforate.ensemble.wasted": "count",
    "inforate.pilot_steps": "count",
    "inforate.cond_entropy.s": "s",
    "inforate.cond_entropy.calls": "count",
    "inforate.mixture_rows.s": "s",
    "inforate.conditional_rows.s": "s",
    "inforate.forward_loglik.s": "s",
    "inforate.forward_steps": "count",
    "channel.simulate.s": "s",
    "trace.overhead": "ratio",
    **{f"kernel.{name}.s": "s" for name in KERNELS},
}
# Kernel results are printed and stored beside their times, not reported
# in the result line.
UNITS = {**END_TO_END, **PER_LAYER, **{f"kernel.{name}.value": "nats" for name in KERNELS}}


class BenchError(Exception):
    pass


class Runner:
    """Starts each pass in a fresh interpreter and collects its result."""

    def __init__(self, args, tag):
        self.args = args
        self.tag = tag
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.count = 0
        self.env = dict(os.environ, **BLAS_ENV)

    def run_pass(self, mode, traced=False):
        self.count += 1
        name = f"{self.tag}-{self.count}-{mode}"
        spec = {
            "mode": mode,
            "root": ROOT,
            "workload": self.args.workload,
            "master_seed": self.args.master_seed,
            "traced": traced,
            "work_dir": os.path.join(OUT_DIR, "work"),
            "result": os.path.join(OUT_DIR, f"{name}.pass.json"),
        }
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before a pass could start")
        started = time.perf_counter()
        try:
            # run() kills the worker on timeout and waits for it to end
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass did not finish within the run's deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        os.unlink(spec["result"])
        result["setup_s"] = result["t_ready"] - started
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def row_times(rows):
    """Median row wall time of each kind; 0 for a kind the rows lack."""
    return {
        f"row_s.{kind}": median([r["wall_s"] for r in rows if r["kind"] == kind])
        for kind in ROW_KINDS
    }


def measure(args, runner):
    """Run the passes; return (metrics, rows, detail for the result file)."""
    started = time.perf_counter()
    plain = [runner.run_pass("sweep")]
    if not args.trace:
        while time.perf_counter() - started + median([p["sweep_wall_s"] for p in plain]) <= args.seconds:
            plain.append(runner.run_pass("sweep"))
    setups = [p["setup_s"] for p in plain]
    setups += [runner.run_pass("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    rows = [row for p in plain for row in p["rows"]]
    detail = {
        "env": plain[0]["env"],
        "passes": [{k: p[k] for k in ("sweep_wall_s", "sweep_cpu_s", "peak_rss_mb", "setup_s")} for p in plain],
        "setup_samples_s": setups,
    }
    metrics = {
        "sweep_wall_s": median([p["sweep_wall_s"] for p in plain]),
        "sweep_cpu_s": median([p["sweep_cpu_s"] for p in plain]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        **row_times(rows),
    }
    if not args.trace:
        return metrics, rows, detail

    base = plain[0]
    traced = runner.run_pass("sweep", traced=True)
    kernels = runner.run_pass("probes")["kernels"]
    rows += traced["rows"]
    metrics.update({
        "cli.runner_overhead_s": base["sweep_wall_s"] - sum(r["wall_s"] for r in base["rows"]),
        **traced["layers"],
        "trace.overhead": traced["sweep_wall_s"] / base["sweep_wall_s"],
        **{f"kernel.{name}.s": kernels[name]["s"] for name in KERNELS},
        # each kernel's result, printed and stored beside its time
        **{f"kernel.{name}.value": kernels[name]["value"] for name in KERNELS},
    })
    detail.update(
        traced_sweep_wall_s=traced["sweep_wall_s"],
        not_instrumented=traced["missing"],
        kernels=kernels,
        spans=traced["spans"],
    )
    return metrics, rows, detail


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["rows"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--master-seed", type=int, default=workloads.ACCEPTANCE_SEED)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "phasecap", "__init__.py")):
        print(f"error: no phasecap sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        metrics, rows, detail = measure(args, Runner(args, tag))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed, applied = workloads.check_rows(rows, load_reference())
    names = PER_LAYER if args.trace else END_TO_END
    report = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    spans = detail.pop("spans", None)
    detail["env"].update(seed=args.seed, master_seed=args.master_seed, git_commit=git_commit())
    result_path = os.path.join(OUT_DIR, f"{tag}.json")
    with open(result_path, "w") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, **report,
                   "reference_check": "applied" if applied else "not applicable",
                   "all_metrics": metrics, "rows": rows, **detail}, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT_DIR, f"{tag}.spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)

    env = detail["env"]
    print(f"workload {args.workload}, seed {args.seed}, master seed {args.master_seed}, "
          f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS {env['blas']['name']} {env['blas']['version']} "
          f"with {env['blas']['threads']} thread(s), commit {env['git_commit']}")
    if not applied:
        print(f"reference check: NOT APPLICABLE, no stored reference for master seed "
              f"{args.master_seed}; rows were checked only for failures")
    print(f"rows: {len(rows)} attempted, {failed} failed or off the reference")
    for name, value in metrics.items():
        print(f"  {name:40s} {value!r:>24} {UNITS[name]}")
    print(f"result: {result_path}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
