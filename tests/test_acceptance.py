"""Acceptance sweep: one test per shipping criterion, each printing a
single PASS/FAIL line (run with -s to see them) and holding a pinned
wall-clock budget."""

import itertools
import random
import subprocess
import sys
import time

import networkx as nx

from graphlifts import fixtures
from graphlifts.algebra import (
    AbelianGroup,
    characters,
    compose,
    format_group,
    inverse,
    perm_matrix,
    poly_mul,
)
from graphlifts.graphs import Graph, emit_graph6, from_adjacency_matrix, from_edge_list, parse_graph6
from graphlifts.isomorphism import are_isomorphic, canonical_form
from graphlifts.lifts import build_lift, constant_signature, make_signature
from graphlifts.search import conditions_hold, corollary_generate
from graphlifts.spectra import charpoly, cospectral, verify_constant_lift_lemma, verify_decomposition

from oracles import brute_force_isomorphic, cofactor_charpoly, load_condition_sweep, mat_mul

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))

BASE_PAIR_CHARPOLY = [-1, 4, 7, -4, -7, 0, 1]

STAR4 = from_edge_list(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
C4_PLUS_K1 = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (1, 4)])


def _report(num: int, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    timely = elapsed < limit
    status = "PASS" if ok and timely else "FAIL"
    print(f"criterion {num:2d}: {status} {elapsed:.3f}s (limit {limit}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert timely, f"criterion {num} took {elapsed:.3f}s, limit {limit}s"


def _random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
    ]
    return from_edge_list(n, edges)


def test_criterion_01_base_pair_cospectral():
    t0 = time.perf_counter()
    pg, ph = charpoly(fixtures.BASE_G), charpoly(fixtures.BASE_H)
    ok = pg == ph == BASE_PAIR_CHARPOLY
    _report(1, ok, time.perf_counter() - t0, 0.1, "6-vertex base pair shares its charpoly")


def test_criterion_02_transcribed_matrices_cospectral():
    from graphlifts.cli import matrix_problems

    t0 = time.perf_counter()
    probs = matrix_problems(fixtures.LIFT_MATRIX_G) + matrix_problems(fixtures.LIFT_MATRIX_H)
    if probs:
        # transcription errata fall back to the freshly built lifts
        a = build_lift(fixtures.BASE_G, fixtures.EXAMPLE_SIGNATURE_G)
        b = build_lift(fixtures.BASE_H, fixtures.EXAMPLE_SIGNATURE_H)
        detail = "transcription errata (" + "; ".join(probs) + "), evaluated on built lifts"
    else:
        a = from_adjacency_matrix(fixtures.LIFT_MATRIX_G)
        b = from_adjacency_matrix(fixtures.LIFT_MATRIX_H)
        detail = "transcribed 18x18 matrices are cospectral"
    ok = cospectral(a, b)
    _report(2, ok, time.perf_counter() - t0, 0.1, detail)


def test_criterion_03_constructed_lifts_cospectral():
    t0 = time.perf_counter()
    a = build_lift(fixtures.BASE_G, fixtures.EXAMPLE_SIGNATURE_G)
    b = build_lift(fixtures.BASE_H, fixtures.EXAMPLE_SIGNATURE_H)
    ok = (
        cospectral(a, b)
        and a.n == b.n == 18
        and len(a.edges) == len(b.edges) == 21
    )
    _report(3, ok, time.perf_counter() - t0, 0.1, "built lifts cospectral, 18 vertices / 21 edges")


def test_criterion_04_square_double_cover_is_octagon():
    t0 = time.perf_counter()
    lifted = build_lift(fixtures.SQUARE, fixtures.SQUARE_SIGNATURE)
    c8 = from_edge_list(8, [(i, i + 1) for i in range(1, 8)] + [(1, 8)])
    ok = canonical_form(lifted).edges == canonical_form(c8).edges
    _report(4, ok, time.perf_counter() - t0, 0.1, "2-lift of the square is the 8-cycle")


def test_criterion_05_decomposition_randomized():
    rng = random.Random(20260821)
    groups = [Z2, Z3, AbelianGroup((4,)), AbelianGroup((2, 2)), AbelianGroup((6,))]
    t0 = time.perf_counter()
    failures = 0
    trials = 0
    for gr in groups:
        elems = gr.elements()
        for _ in range(20):
            base = _random_graph(rng, rng.randint(2, 8))
            sig = make_signature(base, gr, {e: rng.choice(elems) for e in base.edges})
            if not verify_decomposition(base, sig).holds:
                failures += 1
            trials += 1
    _report(
        5,
        failures == 0 and trials >= 100,
        time.perf_counter() - t0,
        30.0,
        f"character decomposition held on {trials} random instances",
    )


def _double_cover_poly_identity(g: Graph) -> bool:
    p = charpoly(g)
    n = g.n
    reflected = [c * (-1 if (n - i) % 2 else 1) for i, c in enumerate(p)]
    doubled = build_lift(g, constant_signature(g, Z2, (1,)))
    return charpoly(doubled) == poly_mul(p, reflected)


def test_criterion_06_constant_involution_lift_identity():
    t0 = time.perf_counter()
    ok = verify_constant_lift_lemma(fixtures.BASE_G, fixtures.BASE_H, Z2, (1,))
    ok = ok and verify_constant_lift_lemma(STAR4, C4_PLUS_K1, Z2, (1,))
    for g in (fixtures.BASE_G, fixtures.BASE_H, STAR4, C4_PLUS_K1):
        ok = ok and _double_cover_poly_identity(g)
    _report(6, ok, time.perf_counter() - t0, 1.0, "constant involution lifts: cospectral pairs and exact factorization")


def test_criterion_07_condition_soundness_sweeps():
    condition_sweep = load_condition_sweep()
    t0 = time.perf_counter()
    counts = []
    for gr in (Z2, Z3, AbelianGroup((4,))):
        (count_g, size_g), (count_h, size_h), cospectral_pairs, passing = (
            condition_sweep.sweep_class_pairs(gr)
        )
        weight = size_g * size_h
        counts.append(
            (format_group(gr), count_g * count_h * weight, len(passing) * weight,
             len(passing - cospectral_pairs) * weight)
        )
    ok = counts == [("Z2", 16384, 2048, 0), ("Z3", 4782969, 531441, 0), ("Z4", 268435456, 10485760, 0)]
    _report(
        7,
        ok,
        time.perf_counter() - t0,
        60.0,
        "conditions imply cospectral lifts over every class pair (pairs / condition-passing / violations): "
        + "; ".join(f"{name} {pairs:,} / {passing:,} / {bad}" for name, pairs, passing, bad in counts),
    )


def test_criterion_08_substitution_generator_exhaustive():
    t0 = time.perf_counter()
    elems = Z2.elements()
    bad = 0
    count = 0
    for u, v, w, x, y, r, x1 in itertools.product(elems, repeat=7):
        sg, sh = corollary_generate(Z2, u=u, v=v, w=w, x=x, y=y, r=r, v1=w, x1=x1)
        count += 1
        if not conditions_hold(sg, sh):
            bad += 1
        elif not cospectral(build_lift(fixtures.BASE_G, sg), build_lift(fixtures.BASE_H, sh)):
            bad += 1
    _report(
        8,
        bad == 0 and count == 128,
        time.perf_counter() - t0,
        10.0,
        f"substitution generator: {count} parameter choices, all cospectral",
    )


def test_criterion_09_oracle_suites():
    rng = random.Random(909)
    t0 = time.perf_counter()
    ok = True

    # division-free charpoly vs cofactor expansion
    for _ in range(200):
        g = _random_graph(rng, rng.randint(1, 5))
        adj = set(g.edges) | {(j, i) for i, j in g.edges}
        m = [[int((i, j) in adj) for j in range(1, g.n + 1)] for i in range(1, g.n + 1)]
        ok = ok and charpoly(g) == cofactor_charpoly(m)

    # refinement-based isomorphism vs all permutations
    for trial in range(200):
        n = rng.randint(1, 7)
        a = _random_graph(rng, n)
        if trial % 2:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            b = from_edge_list(
                n, [tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in a.edges]
            )
        else:
            b = _random_graph(rng, n)
        verdict, mapping = are_isomorphic(a, b)
        ok = ok and verdict == brute_force_isomorphic(a, b)
        if verdict:
            image = {tuple(sorted((mapping[i - 1], mapping[j - 1]))) for i, j in a.edges}
            ok = ok and image == set(b.edges)

    # graph6 codec: roundtrip plus an independent reference encoder
    for _ in range(500):
        g = _random_graph(rng, rng.randint(1, 100), p=0.2)
        text = emit_graph6(g)
        ok = ok and parse_graph6(text) == g
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from((i - 1, j - 1) for i, j in g.edges)
        ok = ok and text == nx.to_graph6_bytes(ng, header=False).decode().strip()

    # characters: orthogonality and the regular-representation identities
    small = [
        (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2),
        (9,), (3, 3), (10,), (11,), (12,), (2, 6),
    ]
    for orders in small:
        gr = AbelianGroup(orders)
        elems = gr.elements()
        chars = characters(gr)
        for ci in chars:
            for cj in chars:
                acc = ci.value(elems[0]) * cj.inverse_value(elems[0])
                for e in elems[1:]:
                    acc = acc + ci.value(e) * cj.inverse_value(e)
                expect = len(elems) if ci.index == cj.index else 0
                ok = ok and acc.equals_integer(expect)
        ident = gr.identity()
        for a in elems:
            for b in elems:
                prod = mat_mul(perm_matrix(gr, a), perm_matrix(gr, b))
                ok = ok and prod == perm_matrix(gr, compose(gr, a, b))
        for chi in chars:
            for a in elems:
                ok = ok and (chi.value(a) * chi.value(inverse(gr, a))).equals_integer(1)
                ok = ok and (chi.value(compose(gr, a, a)) - chi.value(a) * chi.value(a)).equals_integer(0)
        ok = ok and perm_matrix(gr, ident) == [
            [1 if i == j else 0 for j in range(len(elems))] for i in range(len(elems))
        ]

    _report(9, ok, time.perf_counter() - t0, 60.0, "charpoly, isomorphism, codec, and character oracles agree")


def test_criterion_10_search_determinism():
    cmd = [sys.executable, "-m", "graphlifts.cli", "search", "--fixture-pair", "--group", "Z2"]
    t0 = time.perf_counter()
    one = subprocess.run(cmd + ["--jobs", "1"], capture_output=True, timeout=120)
    eight = subprocess.run(cmd + ["--jobs", "8"], capture_output=True, timeout=120)
    rows = len(one.stdout.splitlines())
    ok = one.returncode == eight.returncode == 0 and one.stdout == eight.stdout and rows == 2048
    _report(
        10,
        ok,
        time.perf_counter() - t0,
        30.0,
        f"search output byte-identical across worker counts ({rows} rows)",
    )
