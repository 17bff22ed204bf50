"""Write reference.json from a row cache that holds every benchmark row.

    python3 perfbench/make_reference.py .acceptance-cache

The committed acceptance cache holds the fig1/fig2 rows at the acceptance
master seed, which include every row of every workload.
"""

import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(cache_dir):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from phasecap import cli

    seed = workloads.ACCEPTANCE_SEED
    reference = {}
    for name in workloads.WORKLOADS:
        for text in workloads.config_texts(name, seed, "unused"):
            config = cli.parse_config(text)
            for kind in config.kinds:
                for snr in config.snr_grid_db():
                    path = os.path.join(cache_dir, cli.row_cache_key(config, kind, snr) + ".json")
                    with open(path) as fh:
                        row = json.load(fh)
                    key = workloads.row_key(kind, config.antennas, snr, seed)
                    reference[key] = {
                        "value_bits": row["value_bits"],
                        "std_error_bits": row["std_error_bits"],
                    }
    budgets = dict(workloads.FIGURE_BUDGETS, sigma_delta_degrees=6.0)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"budgets": budgets, "rows": dict(sorted(reference.items()))}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
