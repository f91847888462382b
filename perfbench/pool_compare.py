"""One-off comparison of the sweep thread pool against a sequential sweep.

    python3 perfbench/pool_compare.py --repeats 5

Times `analysis.run_sweep` over the 41 mask centres of the `sweep`
workload in this process, alternating `jobs=1` with the job count
`cli.cmd_sweep` uses, after one untimed warm-up of each.  Only the
propagation is timed; the CSV writing of the CLI is not part of it.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time

from run import DEFAULT_CFG, SRC, machine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import numpy as np

    from doubleslit import load_config, run_sweep
    from workloads import Sweep

    config = load_config(str(DEFAULT_CFG))
    centers = np.linspace(-2.8e-6, 2.8e-6, Sweep.STEPS)
    pool_jobs = machine()["sweep_jobs"]
    times = {1: [], pool_jobs: []}
    for repeat in range(args.repeats + 1):
        for jobs in times:
            start = time.perf_counter()
            run_sweep(config.layout(), config.beam(), centers, config.grid(), jobs=jobs)
            if repeat:
                times[jobs].append(time.perf_counter() - start)
    print(machine())
    for jobs, samples in times.items():
        print(
            f"run_sweep jobs={jobs}: median {statistics.median(samples):.3f} s "
            f"over {len(samples)} runs: {', '.join(f'{t:.3f}' for t in samples)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
