"""The benchmark's tracer (perfbench/tracing.py) wraps names of the package
by lookup; a rename or deletion in the package must fail here, not only in
the benchmark's own suite."""

import contextlib
import importlib.util
import os

from phasecap import bounds, cli, entropy, inforate, mathcore

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_instrumented_name_exists():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    modules = {"bounds": bounds, "entropy": entropy, "mathcore": mathcore, "inforate": inforate}
    originals = (cli.compute_row, inforate._mixture_log_rows_dense, inforate.simulate)
    with contextlib.ExitStack() as stack:
        tracing.install_row_timer(stack, tracer, cli)
        tracing.install_layer_wrappers(stack, tracer, modules)
        assert tracer.missing == []
        assert inforate._mixture_log_rows_dense is not originals[1]
    # closing the stack puts every original back
    assert (cli.compute_row, inforate._mixture_log_rows_dense, inforate.simulate) == originals
