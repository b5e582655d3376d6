"""Cross-check the benchmark's reference against the package's own oracles.

    python3 perfbench/crosscheck.py [--points 60] [--seed 0]

`oracle.brute_force_density_matrix` (2^N enumeration on the solver's cell
matrices) and `oracle.wootters_concurrence` (generic spin-flip concurrence)
are the package's independent references.  This script draws scatter points
across the whole physical range and compares them with reference.py wherever
the oracle returns finite values; points where the oracle raises (it shares
the solver's fixed-width Boltzmann weights) are counted and skipped.  Prints
the worst deviations and exits non-zero if a state element deviates by more
than 1e-10 or a concurrence by more than 1e-5: the oracle zeroes eigenvalues
of R below 1e-12 of the largest, so its square roots can be off by ~1e-6.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from impurity_chain import ModelParams, oracle  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    worst_state = worst_conc = 0.0
    compared = skipped = 0
    for _ in range(args.points):
        par = workloads._scatter_point(rng)
        n = rng.randint(2, 12)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                brute = oracle.brute_force_density_matrix(ModelParams(**par), n)
                dense = brute.to_matrix()
                conc = oracle.wootters_concurrence(dense)
        except (ArithmeticError, ValueError, FloatingPointError):
            skipped += 1
            continue
        rho = ref.ring_state(par, n)
        el = ref.elements(rho)
        worst_state = max(worst_state, max(abs(getattr(brute, k) - el[k]) for k in el))
        worst_conc = max(worst_conc, abs(conc - ref.concurrence(rho)))
        compared += 1
    print(f"{compared} points compared, {skipped} skipped where the oracle raised")
    print(f"max |oracle - reference| state element: {worst_state:.3e}")
    print(f"max |oracle - reference| concurrence:   {worst_conc:.3e}")
    return 0 if worst_state <= 1e-10 and worst_conc <= 1e-5 else 1


if __name__ == "__main__":
    sys.exit(main())
