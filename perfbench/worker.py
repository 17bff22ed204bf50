"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SPEC

SPEC is a JSON object with `mode` (``setup``, ``sweep`` or ``probes``),
`root` (the checkout), `workload`, `master_seed`, `traced`,
`work_dir` and `result` (the path the pass writes its JSON result to).
Every mode reports `t_ready`, the `time.perf_counter()` reading once
imports and config parsing are done; the parent subtracts its own reading
taken before the interpreter started, which gives the set-up time.
"""

import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import ExitStack


def blas_record():
    """BLAS library and the thread count it runs with, from this process."""
    import ctypes
    import glob

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record.update(threads=int(getter()), library=os.path.basename(path))
                return record
    return record


def environment():
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
    }


def run_sweeps(spec, cli, modules, texts):
    import tracing

    tracer = tracing.Tracer()
    with ExitStack() as stack:
        tracing.install_row_timer(stack, tracer, cli)
        if spec["traced"]:
            tracing.install_layer_wrappers(stack, tracer, modules)
        configs = [cli.parse_config(text) for text in texts]
        t_ready = time.perf_counter()
        cpu0 = time.process_time()
        for config in configs:
            cli.run_sweep(config)
        wall = time.perf_counter() - t_ready
        cpu = time.process_time() - cpu0
    result = {
        "t_ready": t_ready,
        "sweep_wall_s": wall,
        "sweep_cpu_s": cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": tracer.rows,
        "missing": tracer.missing,
    }
    if spec["traced"]:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.spans
    return result


def main(spec):
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from phasecap import bounds, cli, entropy, inforate, mathcore

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"phasecap was imported from {cli.__file__}, not from {src}")
    import workloads

    modules = {"bounds": bounds, "entropy": entropy, "mathcore": mathcore, "inforate": inforate}
    os.makedirs(spec["work_dir"], exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=spec["work_dir"], prefix=f"{spec['mode']}-")
    try:
        texts = workloads.config_texts(spec["workload"], spec["master_seed"], work_dir)
        if spec["mode"] == "setup":
            for text in texts:
                cli.parse_config(text)
            result = {"t_ready": time.perf_counter()}
        elif spec["mode"] == "sweep":
            result = run_sweeps(spec, cli, modules, texts)
        elif spec["mode"] == "probes":
            import probes

            result = {"t_ready": time.perf_counter()}
            result["kernels"] = probes.run(cli, modules, spec["master_seed"], work_dir)
        else:
            raise SystemExit(f"unknown mode {spec['mode']!r}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["env"] = environment()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
