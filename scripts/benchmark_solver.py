"""Time the leximin solver across instance sizes.

Generates square max-atomic instances with small integer demands, times the
weight construction and the solve separately, and re-checks the weight
invariants on every instance. Demands stay in a narrow band on purpose: that
is the regime where weights grow fastest relative to n.
"""

import argparse
import random
import time

from fairdiv import (
    check_weight_invariants,
    generate_weights,
    max_atomic_instance,
    solve_leximin,
    utility_vector,
)


def run_one(n: int, demand_max: int, rng: random.Random) -> dict:
    matrix = [[rng.randint(0, demand_max) for _ in range(n)] for _ in range(n)]
    instance = max_atomic_instance(matrix)

    started = time.perf_counter()
    weights = generate_weights(instance)
    weights_s = time.perf_counter() - started

    started = time.perf_counter()
    allocation = solve_leximin(instance)
    solve_s = time.perf_counter() - started

    check_weight_invariants(instance, weights)
    worst = min(utility_vector(instance, allocation).values)
    # bit_length, not str(): str() refuses ints of more than 4300 digits
    bits = max(w.bit_length() for row in weights.weights for w in row)
    return {"n": n, "weights_s": weights_s, "solve_s": solve_s,
            "worst_utility": worst, "max_weight_bits": bits}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10, 25, 50, 100, 200])
    parser.add_argument("--demand-max", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    print(f"{'n':>5} {'weights':>9} {'solve':>9} {'min utility':>12} {'weight bits':>12}")
    for n in args.sizes:
        row = run_one(n, args.demand_max, rng)
        print(f"{row['n']:>5} {row['weights_s']:>8.3f}s {row['solve_s']:>8.3f}s"
              f" {str(row['worst_utility']):>12} {row['max_weight_bits']:>12}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
