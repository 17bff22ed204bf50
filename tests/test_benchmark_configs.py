"""The benchmark (perfbench/) feeds the config template of
perfbench/workloads.py through `cli.parse_config`; a change to the config
field table must fail here, not only in the benchmark's own suite."""

import glob
import importlib.util
import os

import pytest

from phasecap import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")

# (section, key) of every config field, in canonical order
CANONICAL_KEYS = [
    ("channel", "antennas"),
    ("channel", "sigma_delta_degrees"),
    ("channel", "h_matrix"),
    ("sweep", "start_db"),
    ("sweep", "stop_db"),
    ("sweep", "step_db"),
    ("sweep", "kinds"),
    ("mc", "n_samples"),
    ("mc", "block_length"),
    ("mc", "n_blocks"),
    ("mc", "q_levels"),
    ("mc", "past_window"),
    ("mc", "constellation"),
    ("run", "master_seed"),
    ("run", "parallelism"),
    ("output", "csv"),
    ("output", "cache_dir"),
]


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canonical_keys(config):
    keys, section = [], None
    for line in cli.canonical_text(config).splitlines():
        if line.startswith("["):
            section = line[1:-1]
        else:
            keys.append((section, line.split(" = ", 1)[0]))
    return keys


def assert_round_trips(config):
    assert cli.parse_config(cli.canonical_text(config)) == config
    assert canonical_keys(config) == CANONICAL_KEYS


@pytest.mark.parametrize("workload", ["bounds", "qam"])
def test_benchmark_template_parses_with_the_figure_budgets(workload, tmp_path):
    workloads = load_workloads()
    texts = workloads.config_texts(workload, workloads.ACCEPTANCE_SEED, str(tmp_path))
    for text in texts:
        config = cli.parse_config(text)
        for name, value in workloads.FIGURE_BUDGETS.items():
            assert getattr(config, name) == value
        assert config.master_seed == workloads.ACCEPTANCE_SEED
        assert_round_trips(config)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))), ids=os.path.basename
)
def test_committed_configs_round_trip(path):
    assert_round_trips(cli.parse_config_file(path))
