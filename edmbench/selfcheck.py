"""Check that the workload generators are seed-stable.

Usage (from the repository root)::

    python3 edmbench/selfcheck.py [--seeds 1 2 3 4 5]

Two properties, for every in-process workload:

* one seed yields bit-identical inputs on every call;
* the seed changes values, not shape: after one workload pass, the active
  and the inactive cell counts of every seed lie within a tenth of their
  median over the seeds.

Exits with status 1 and names the offending workload when either fails.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import inproc  # noqa: E402

TOLERANCE = 0.1


def main(argv=None) -> int:
    """Run both checks; 0 when every workload passes."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = parser.parse_args(argv)
    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    ok = True
    for name, spec in inproc.SPECS.items():
        first, again = spec.make(args.seeds[0], spec.points), spec.make(args.seeds[0], spec.points)
        same = all(np.array_equal(a, b) for a, b in zip(first, again))
        counts = []
        for seed in args.seeds:
            X, _ = spec.make(seed, spec.points)
            final = inproc.run_pass(spec, X, workdir).final
            counts.append((final["active_cells"], final["inactive_cells"]))
        counts = np.asarray(counts, dtype=float)
        median = np.median(counts, axis=0)
        worst = np.max(np.abs(counts - median) / median, axis=0)
        stable = bool(np.all(worst <= TOLERANCE))
        ok = ok and same and stable
        print(
            f"{name}: identical inputs per seed: {same}; "
            f"active {counts[:, 0].astype(int).tolist()} (worst {worst[0]:.3f}), "
            f"inactive {counts[:, 1].astype(int).tolist()} (worst {worst[1]:.3f}); "
            f"{'ok' if same and stable else 'FAIL'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
