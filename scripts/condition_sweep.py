#!/usr/bin/env python3
"""Sweep signature pairs on the bundled base pair and tally how the
cospectrality conditions line up with actual cospectrality.

Exhaustive over Z2 (128 x 128 pairs), randomized for larger groups.
Exits nonzero if a condition-passing pair fails to be cospectral.
"""

import argparse
import random
import sys

from graphlifts.algebra import parse_group
from graphlifts.fixtures import BASE_G, BASE_H
from graphlifts.search import conditions_hold, signature_count, signature_from_rank
from graphlifts.spectra import lift_charpoly


def sweep_pairs(group_text: str, trials: int, seed: int):
    gr = parse_group(group_text)
    total_g = signature_count(BASE_G, gr)
    total_h = signature_count(BASE_H, gr)

    poly_g = {}
    poly_h = {}

    def charpoly_g(rank):
        if rank not in poly_g:
            sig = signature_from_rank(BASE_G, gr, rank)
            poly_g[rank] = (sig, tuple(lift_charpoly(BASE_G, sig)))
        return poly_g[rank]

    def charpoly_h(rank):
        if rank not in poly_h:
            sig = signature_from_rank(BASE_H, gr, rank)
            poly_h[rank] = (sig, tuple(lift_charpoly(BASE_H, sig)))
        return poly_h[rank]

    exhaustive = total_g * total_h <= trials
    if exhaustive:
        candidates = ((a, b) for a in range(total_g) for b in range(total_h))
        n_pairs = total_g * total_h
    else:
        rng = random.Random(seed)
        candidates = (
            (rng.randrange(total_g), rng.randrange(total_h)) for _ in range(trials)
        )
        n_pairs = trials

    passing = cospectral_count = violations = 0
    for rank_g, rank_h in candidates:
        sig_g, pg = charpoly_g(rank_g)
        sig_h, ph = charpoly_h(rank_h)
        cond = conditions_hold(sig_g, sig_h)
        cosp = pg == ph
        if cond:
            passing += 1
            if not cosp:
                violations += 1
                print(f"VIOLATION rank_g={rank_g} rank_h={rank_h}")
        if cosp:
            cospectral_count += 1
    mode = "exhaustive" if exhaustive else f"random seed={seed}"
    print(f"group {group_text}: {n_pairs} pairs ({mode})")
    print(f"  condition-passing: {passing}")
    print(f"  cospectral:        {cospectral_count}")
    print(f"  violations:        {violations}")
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--group", default="Z3", help="group for the randomized sweep")
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    bad = sweep_pairs("Z2", trials=128 * 128, seed=args.seed)
    if args.group != "Z2":
        bad += sweep_pairs(args.group, trials=args.trials, seed=args.seed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
