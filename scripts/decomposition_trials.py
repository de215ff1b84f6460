#!/usr/bin/env python3
"""Randomized trials of the character-product decomposition.

Each trial draws a random base graph, a random abelian group, and a random
signature, then checks that the lift charpoly equals the product of the
character-matrix charpolys. Prints a summary; exits 1 on any failure.
"""

import argparse
import math
import random
import sys

from graphlifts.algebra import AbelianGroup, format_group, poly_text
from graphlifts.cli import LIFT_CEILING
from graphlifts.graphs import from_edge_list
from graphlifts.lifts import make_signature
from graphlifts.spectra import verify_decomposition

GROUP_POOL = [
    (2,),
    (3,),
    (4,),
    (5,),
    (2, 2),
    (6,),
    (2, 4),
    (3, 3),
    (2, 2, 2),
    (12,),
]


def random_graph(rng: random.Random, max_n: int):
    n = rng.randint(2, max_n)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = [e for e in edges if rng.random() < 0.5]
    if not chosen:
        chosen = [edges[0]]
    return from_edge_list(n, chosen)


def run_trials(trials: int, seed: int, max_n: int, verbose: bool) -> int:
    rng = random.Random(seed)
    failures = 0
    for t in range(trials):
        base = random_graph(rng, max_n)
        gr = AbelianGroup(rng.choice(GROUP_POOL))
        sig = make_signature(
            base, gr, {e: rng.choice(gr.elements()) for e in base.edges}
        )
        report = verify_decomposition(base, sig)
        if not report.holds:
            failures += 1
            print(f"FAIL trial {t}: n={base.n} group={format_group(gr)}")
            print(f"  lift:    {poly_text(report.lift_poly)}")
            print(f"  product: {poly_text(report.product_poly)}")
        elif verbose:
            print(
                f"ok trial {t}: n={base.n} m={len(base.edges)} "
                f"group={format_group(gr)} charpoly={poly_text(report.lift_poly)}"
            )
    print(f"{trials} trials, {failures} failures (seed={seed}, max_n={max_n})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.max_n < 2:
        parser.error(f"--max-n must be at least 2, got {args.max_n}")
    # a lift has up to max_n times the largest pool order vertices, and
    # verify-mota refuses lifts past LIFT_CEILING
    top = LIFT_CEILING // max(map(math.prod, GROUP_POOL))
    if args.max_n > top:
        parser.error(
            f"--max-n must be at most {top}, so every lift stays within {LIFT_CEILING} vertices, "
            f"got {args.max_n}"
        )
    if args.trials < 0:
        parser.error(f"--trials must be at least 0, got {args.trials}")
    return 1 if run_trials(args.trials, args.seed, args.max_n, args.verbose) else 0


if __name__ == "__main__":
    sys.exit(main())
