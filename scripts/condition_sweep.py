#!/usr/bin/env python3
"""Check the paper's two results on the bundled base pair, over Z2 and then
--group.

The conditions and a lift's charpoly depend only on each signature's
switching class, so every pair (G class, H class) is checked once, on class
representatives; a class pair stands for the product of its class sizes in
signature pairs. The constant-lift lemma is checked for every involution.
Exits 1 if a condition-passing pair is not cospectral or the lemma fails.
"""

import argparse
import sys

from graphlifts.algebra import AbelianGroup, BadGroupSpec, compose, format_group, parse_group
from graphlifts.fixtures import BASE_G, BASE_H
from graphlifts.search import SwitchingClasses, conditions_hold, signature_count
from graphlifts.spectra import lift_charpoly, verify_constant_lift_lemma

Z2 = AbelianGroup((2,))


def sweep_class_pairs(gr: AbelianGroup):
    """Each side's (class count, class size), then the sets of (class_g,
    class_h) pairs that are cospectral and that pass the conditions."""
    sides = []
    for base in (BASE_G, BASE_H):
        classes = SwitchingClasses(base, gr)
        reps = [classes.representative(c) for c in range(classes.count)]
        polys = [tuple(lift_charpoly(base, s)) for s in reps]
        sides.append((reps, polys, (classes.count, signature_count(base, gr) // classes.count)))
    (reps_g, polys_g, shape_g), (reps_h, polys_h, shape_h) = sides
    pairs = [(cg, ch) for cg in range(len(reps_g)) for ch in range(len(reps_h))]
    cospectral = {(cg, ch) for cg, ch in pairs if polys_g[cg] == polys_h[ch]}
    passing = {(cg, ch) for cg, ch in pairs if conditions_hold(reps_g[cg], reps_h[ch])}
    return shape_g, shape_h, cospectral, passing


def sweep(gr: AbelianGroup) -> int:
    """Print the sweep over gr; return the violating class pairs plus the
    involutions for which the lemma fails."""
    (count_g, size_g), (count_h, size_h), cospectral, passing = sweep_class_pairs(gr)
    weight = size_g * size_h
    violations = sorted(passing - cospectral)
    for cg, ch in violations:
        print(f"VIOLATION class_g={cg} class_h={ch}")
    involutions = [e for e in gr.elements() if compose(gr, e, e) == gr.identity()]
    holding = sum(verify_constant_lift_lemma(BASE_G, BASE_H, gr, e) for e in involutions)
    print(f"group {format_group(gr)}: {count_g * count_h * weight} pairs (exhaustive)")
    print(f"  condition-passing: {len(passing) * weight}")
    print(f"  cospectral:        {len(cospectral) * weight}")
    print(f"  violations:        {len(violations) * weight}")
    print(
        f"  class pairs:       {count_g} x {count_h}, {len(cospectral)} cospectral, "
        f"{len(passing)} condition-passing"
    )
    print(f"  constant-lift lemma holds for {holding} of {len(involutions)} involutions")
    return len(violations) + len(involutions) - holding


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--group", default="Z3", help="abelian group swept after Z2")
    args = parser.parse_args(argv)
    try:
        gr = parse_group(args.group)
    except BadGroupSpec as exc:
        parser.error(str(exc))
    if not isinstance(gr, AbelianGroup):
        parser.error(f"{args.group} is not abelian; the conditions need an abelian group")
    bad = sweep(Z2) + (sweep(gr) if gr != Z2 else 0)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
