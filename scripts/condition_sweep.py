#!/usr/bin/env python3
"""Check the paper's two results on the bundled base pair, over Z2 and then
--group.

The conditions and a lift's charpoly depend only on each signature's
switching class, so every pair (G class, H class) is checked once, on class
representatives: its cospectrality read from search.ClassJoin, its
conditions checked here. A class pair stands for the product of its class
sizes in signature pairs. The constant-lift lemma is checked for every
involution. Exits 1 if a condition-passing pair is not cospectral or the
lemma fails, and 2 on a group with more than MAX_CLASSES classes a side.
"""

import argparse
import sys

from graphlifts.algebra import AbelianGroup, BadGroupSpec, compose, format_group, parse_group
from graphlifts.fixtures import BASE_G, BASE_H
from graphlifts.search import ClassJoin, check_condition1, conditions_hold, signature_count
from graphlifts.spectra import verify_constant_lift_lemma

Z2 = AbelianGroup((2,))
# The most switching classes a side that a sweep takes on: Z60's 3,600, a
# sweep of about 9 s; Z100's 10,000 took 53 s.
MAX_CLASSES = 3600


def sweep_class_pairs(gr: AbelianGroup):
    """Each side's (class count, class size), then the sets of (class_g,
    class_h) pairs that are cospectral and that pass the conditions."""
    join = ClassJoin(BASE_G, BASE_H, gr)
    shape_g, shape_h = (
        (c.count, signature_count(c.base, gr) // c.count) for c in (join.classes_g, join.classes_h)
    )
    reps_g, reps_h = (
        [c.representative(cid) for cid in range(c.count)] for c in (join.classes_g, join.classes_h)
    )
    cospectral = {(cg, ch) for cg in range(len(reps_g)) for ch, _, _ in join.pairs(cg)[1]}
    # a G class that fails condition 1 passes with no H class
    passing = {
        (cg, ch)
        for cg, sg in enumerate(reps_g)
        if check_condition1(sg)
        for ch, sh in enumerate(reps_h)
        if conditions_hold(sg, sh)
    }
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
    # |Gr| to the cycle rank m - n + 1 of each connected base, known before
    # SwitchingClasses builds its |Gr| x |Gr| table
    classes = max(gr.order() ** (len(b.edges) - b.n + 1) for b in (BASE_G, BASE_H))
    if classes > MAX_CLASSES:
        parser.error(f"{args.group} has {classes} switching classes a side, more than {MAX_CLASSES}")
    bad = sweep(Z2) + (sweep(gr) if gr != Z2 else 0)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
