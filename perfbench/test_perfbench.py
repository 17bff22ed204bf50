"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os

import pytest

import run
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# Small budgets: the tests check which layers a workload reaches, not its time.
SMALL_BUDGETS = {
    "n_samples": 1000,
    "block_length": 200,
    "n_blocks": 2,
    "q_levels": 32,
    "past_window": 100,
    "constellation": "qam16",
}


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)


def test_self_time_of_nested_spans():
    spans = [
        ["row", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["a", 7.0, 8.0, 0, 0],
        ["x", 8.0, 9.5, 0, 0],
        ["x", 8.5, 9.0, 5, 0],
    ]
    s = tracing.summarize(spans)
    assert s["row"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 3.0 - 1.0 - 1.0 - 1.5}
    assert s["a"] == {"calls": 2, "s": 4.0, "self_s": 2.0 + 1.0}
    assert s["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    # a name nested in itself counts its outermost span once in total time
    assert s["x"] == {"calls": 2, "s": 1.5, "self_s": 1.0 + 0.5}


def test_wrapped_calls_record_their_parent():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner() or inner(), "outer")
    outer()
    assert [(name, parent) for name, _, _, parent, _ in tracer.spans] == [
        ("outer", None),
        ("inner", 0),
        ("inner", 0),
    ]
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


def reference_rows():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["rows"]
    rows = []
    for key, ref in reference.items():
        kind, antennas, snr, seed = key.split("|")
        rows.append(
            {
                "kind": kind,
                "antennas": int(antennas[1:]),
                "snr_db": float(snr[:-2]),
                "master_seed": int(seed),
                "failed": False,
                "value_bits": ref["value_bits"],
                "std_error_bits": ref["std_error_bits"],
            }
        )
    return reference, rows


def pick(rows, kind):
    return next(r for r in rows if r["kind"] == kind)


def test_rows_on_the_reference_pass():
    reference, rows = reference_rows()
    assert workloads.check_rows(rows, reference) == (0, True)


@pytest.mark.parametrize(
    "kind, shift, fails",
    [
        ("memoryless_plus_corr", 0.5e-9, False),
        ("memoryless_plus_corr", 2e-9, True),
        ("U", 0.05, False),
        ("U", 0.2, True),
        ("qam_lower", -0.2, True),
    ],
)
def test_row_moved_beyond_its_tolerance_fails(kind, shift, fails):
    reference, rows = reference_rows()
    row = pick(rows, kind)
    # MC shifts are in units of the reference std error, others in bits
    row["value_bits"] += shift * (row["std_error_bits"] if kind in ("U", "qam_lower") else 1.0)
    assert workloads.check_rows(rows, reference) == (int(fails), True)


def test_failed_row_and_missing_reference_are_reported():
    reference, rows = reference_rows()
    pick(rows, "U_s")["failed"] = True
    assert workloads.check_rows(rows, reference) == (1, True)
    pick(rows, "asymptotic")["master_seed"] = 1
    assert workloads.check_rows(rows, reference) == (1, False)


def traced_pass(workload, work_dir):
    from phasecap import bounds, cli, entropy, inforate, mathcore

    modules = {"bounds": bounds, "entropy": entropy, "mathcore": mathcore, "inforate": inforate}
    # a benchmark pass starts with an empty node cache, in a fresh interpreter
    mathcore._panel_nodes.cache_clear()
    texts = workloads.config_texts(workload, 1, str(work_dir), SMALL_BUDGETS)
    result = worker.run_sweeps({"traced": True}, cli, modules, texts)
    assert result["missing"] == []
    assert not any(row["failed"] for row in result["rows"])
    return result["layers"]


def one_row_each(monkeypatch, kinds):
    # one row of each kind shows which layers the kinds reach
    monkeypatch.setitem(workloads.WORKLOADS, "bounds", ((2, (30,), kinds),))


@pytest.mark.parametrize("workload", ["qam", "bounds"])
def test_work_counts_repeat_exactly(workload, tmp_path, monkeypatch):
    one_row_each(monkeypatch, workloads.WORKLOADS["bounds"][0][2])
    counts = [
        {k: v for k, v in traced_pass(workload, tmp_path / str(i)).items()
         if not k.endswith((".s", "_s"))}
        for i in range(2)
    ]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_traced_qam_reaches_no_optimizer_or_quadrature(tmp_path):
    layers = traced_pass("qam", tmp_path)
    for name in ("bounds.objective.calls", "bounds.xi_evals", "mathcore.quadrature.calls",
                 "mathcore.quadrature.node_evals", "entropy.conv_entropies.kappas",
                 "inforate.cond_entropy.calls", "inforate.ensemble.calls"):
        assert layers[name] == 0, name
    assert layers["inforate.forward_steps"] > 0
    assert layers["inforate.mixture_rows.s"] > 0
    assert layers["channel.simulate.s"] > 0


def test_traced_duality_kinds_reach_no_forward_recursion(tmp_path, monkeypatch):
    one_row_each(monkeypatch, ("asymptotic", "memoryless_plus_corr", "U_s"))
    layers = traced_pass("bounds", tmp_path)
    for name in ("inforate.ensemble.calls", "inforate.pilot_steps", "inforate.cond_entropy.calls",
                 "inforate.mixture_rows.s", "inforate.forward_steps", "channel.simulate.s"):
        assert layers[name] == 0, name
    assert layers["bounds.xi_evals"] > 0
    assert layers["bounds.objective.calls"] > 0
    assert layers["mathcore.quadrature.calls"] > 0
    assert layers["mathcore.panel_nodes.misses"] > 0
    assert layers["entropy.conv_entropies.kappas"] > 0


def test_traced_u_reaches_the_pilot_recursion_but_no_qam_rows(tmp_path, monkeypatch):
    one_row_each(monkeypatch, ("U",))
    layers = traced_pass("bounds", tmp_path)
    for name in ("inforate.mixture_rows.s", "inforate.forward_steps", "channel.simulate.s",
                 "entropy.conv_entropies.kappas"):
        assert layers[name] == 0, name
    assert layers["inforate.ensemble.calls"] > 0
    assert layers["inforate.cond_entropy.calls"] >= layers["bounds.xi_evals"] > 0
