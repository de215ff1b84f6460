import importlib
import random
from collections import Counter
from itertools import takewhile, zip_longest

import pytest

from graphlifts import fixtures
from graphlifts.algebra import (
    AbelianGroup,
    SymmetricGroup,
    compose,
    inverse,
    power_product,
)
from graphlifts.graphs import adjacency_matrix, degree_sequence, from_edge_list
from graphlifts.isomorphism import are_isomorphic, canonical_form, relabeled
from graphlifts.lifts import NonAbelianSignature, Signature, build_lift, make_signature
from graphlifts.search import (
    BudgetExceeded,
    ClassJoin,
    Condition1Violated,
    SearchOptions,
    SwitchingClasses,
    WrongBaseGraph,
    check_condition1,
    check_condition2,
    conditions_hold,
    corollary_generate,
    iter_search,
    net_voltage,
    rank_blocks,
    search,
    signature_count,
    signature_from_rank,
)
from graphlifts.spectra import charpoly, cospectral, lift_charpoly

from oracles import characters, closed_walk_crossings, cyclo_int, mat_mul

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z4 = AbelianGroup((4,))


# --- signature ranks --------------------------------------------------------


def test_rank_roundtrip():
    for gr in (Z2, Z3, AbelianGroup((2, 2))):
        total = signature_count(fixtures.BASE_G, gr)
        assert total == gr.order() ** 7
        for rank in (0, 1, total // 2, total - 1):
            sig = signature_from_rank(fixtures.BASE_G, gr, rank)
            digits = [gr.index(sig.assignments[edge]) for edge in fixtures.BASE_G.edges]
            assert sum(d * gr.order() ** p for p, d in enumerate(reversed(digits))) == rank
    with pytest.raises(ValueError):
        signature_from_rank(fixtures.BASE_G, Z2, 128)
    with pytest.raises(ValueError):
        signature_from_rank(fixtures.BASE_G, Z2, -1)


def test_rank_zero_is_identity_and_first_edge_most_significant():
    sig0 = signature_from_rank(fixtures.BASE_G, Z3, 0)
    assert all(v == (0,) for v in sig0.assignments.values())
    # rank 1 changes the LAST edge; the highest-order digit is the first edge
    sig1 = signature_from_rank(fixtures.BASE_G, Z3, 1)
    assert sig1.get(5, 6) == (1,)
    assert all(sig1.assignments[e] == (0,) for e in fixtures.BASE_G.edges[:-1])
    top = signature_from_rank(fixtures.BASE_G, Z3, 2 * 3**6)
    assert top.get(1, 2) == (2,)
    assert all(top.assignments[e] == (0,) for e in fixtures.BASE_G.edges[1:])


# --- the two conditions -----------------------------------------------------


def test_condition1_is_the_edge_equation():
    rng = random.Random(2)
    for _ in range(200):
        rank = rng.randrange(signature_count(fixtures.BASE_G, Z4))
        sig = signature_from_rank(fixtures.BASE_G, Z4, rank)
        lhs = compose(Z4, sig.get(2, 4), sig.get(4, 5))
        rhs = compose(Z4, sig.get(2, 3), sig.get(3, 5))
        assert check_condition1(sig) == (lhs == rhs)


def test_condition_checks_validate_inputs():
    sig_g = signature_from_rank(fixtures.BASE_G, Z2, 0)
    sig_h = signature_from_rank(fixtures.BASE_H, Z2, 0)
    with pytest.raises(WrongBaseGraph):
        check_condition1(sig_h)
    with pytest.raises(WrongBaseGraph):
        check_condition2(sig_h, sig_h)
    with pytest.raises(WrongBaseGraph):
        check_condition2(sig_g, sig_g)
    s3 = SymmetricGroup(3)
    with pytest.raises(NonAbelianSignature):
        check_condition1(fixtures.EXAMPLE_SIGNATURE_G)
    with pytest.raises(NonAbelianSignature):
        check_condition2(fixtures.EXAMPLE_SIGNATURE_G, fixtures.EXAMPLE_SIGNATURE_H)
    sig_g_z3 = signature_from_rank(fixtures.BASE_G, Z3, 0)
    with pytest.raises(WrongBaseGraph):
        check_condition2(sig_g_z3, sig_h)  # group mismatch
    # condition 2 requires condition 1
    bad = make_signature(
        fixtures.BASE_G,
        Z2,
        {(1, 2): (0,), (2, 3): (1,), (2, 4): (0,), (3, 4): (0,), (3, 5): (0,), (4, 5): (0,), (5, 6): (0,)},
    )
    assert not check_condition1(bad)
    with pytest.raises(Condition1Violated):
        check_condition2(bad, sig_h)
    assert not conditions_hold(bad, sig_h)


# --- multiset reformulation -------------------------------------------------


def _char_sums_equal(gr, alpha, beta, gamma):
    for chi in characters(gr):
        k = chi.value(gr.identity()).modulus
        left = (
            chi.value(alpha)
            + chi.inverse_value(alpha)
            + chi.value(alpha)
            + chi.inverse_value(alpha)
        )
        right = (
            chi.value(beta)
            + chi.inverse_value(beta)
            + chi.value(gamma)
            + chi.inverse_value(gamma)
        )
        if not (left - right) == cyclo_int(k, 0):
            return False
    return True


def _multisets_equal(gr, alpha, beta, gamma):
    left = Counter([alpha, inverse(gr, alpha)] * 2)
    right = Counter([beta, inverse(gr, beta), gamma, inverse(gr, gamma)])
    return left == right


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2)])
def test_multiset_reformulation_exhaustive(orders):
    gr = AbelianGroup(orders)
    elems = gr.elements()
    for alpha in elems:
        for beta in elems:
            for gamma in elems:
                assert _char_sums_equal(gr, alpha, beta, gamma) == _multisets_equal(
                    gr, alpha, beta, gamma
                )


@pytest.mark.parametrize("orders", [(5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)])
def test_multiset_reformulation_randomized(orders):
    gr = AbelianGroup(orders)
    elems = gr.elements()
    rng = random.Random(sum(orders))
    for _ in range(150):
        alpha, beta, gamma = (rng.choice(elems) for _ in range(3))
        assert _char_sums_equal(gr, alpha, beta, gamma) == _multisets_equal(
            gr, alpha, beta, gamma
        )
    # include forced-equal cases, which random draws rarely hit
    for _ in range(50):
        alpha = rng.choice(elems)
        beta, gamma = rng.choice(
            [(alpha, alpha), (alpha, inverse(gr, alpha)), (inverse(gr, alpha), alpha)]
        )
        assert _char_sums_equal(gr, alpha, beta, gamma)
        assert _multisets_equal(gr, alpha, beta, gamma)


def _fold(gr, factors):
    """The product of e**n over (e, n) factors, one compose at a time."""
    acc = gr.identity()
    for e, n in factors:
        step = e if n > 0 else inverse(gr, e)
        for _ in range(abs(n)):
            acc = compose(gr, acc, step)
    return acc


@pytest.mark.parametrize("orders", [(2, 2), (3,), (12,)], ids=["Z2xZ2", "Z3", "Z12"])
def test_net_voltage_equals_a_fold_through_compose(orders):
    gr = AbelianGroup(orders)
    rng = random.Random(sum(orders))
    cycles = ((fixtures.BASE_G, (2, 4, 5, 3)), (fixtures.BASE_G, (2, 3, 4)),
              (fixtures.BASE_H, (3, 5, 6)), (fixtures.BASE_H, (1, 2, 3)))
    for _ in range(200):
        sig_g = signature_from_rank(fixtures.BASE_G, gr, rng.randrange(signature_count(fixtures.BASE_G, gr)))
        sig_h = signature_from_rank(fixtures.BASE_H, gr, rng.randrange(signature_count(fixtures.BASE_H, gr)))
        for base, walk in cycles:
            sig = sig_g if base == fixtures.BASE_G else sig_h
            steps = zip(walk, walk[1:] + walk[:1])
            expected = _fold(gr, [(sig.get(a, b), 1 if a < b else -1) for a, b in steps])
            assert net_voltage(sig, walk) == expected
        factors = [(rng.choice(gr.elements()), rng.randint(-3, 3)) for _ in range(rng.randint(0, 5))]
        assert power_product(gr, factors) == _fold(gr, factors)


# --- corollary generator ----------------------------------------------------


def test_corollary_z2_exhaustive_free_parameters():
    elems = Z2.elements()
    for bits in range(2**7):
        vals = [(elems[(bits >> k) & 1]) for k in range(7)]
        u, v, w, x, y, r, x1 = vals
        sig_g, sig_h = corollary_generate(Z2, u=u, v=v, w=w, x=x, y=y, r=r, v1=w, x1=x1)
        assert conditions_hold(sig_g, sig_h)
        assert cospectral(build_lift(fixtures.BASE_G, sig_g), build_lift(fixtures.BASE_H, sig_h))


def test_corollary_z3_randomized():
    rng = random.Random(6)
    elems = Z3.elements()
    for _ in range(40):
        kw = {name: rng.choice(elems) for name in ("u", "v", "w", "x", "y", "r", "x1")}
        sig_g, sig_h = corollary_generate(Z3, v1=kw["w"], **kw)
        assert conditions_hold(sig_g, sig_h)
        assert cospectral(build_lift(fixtures.BASE_G, sig_g), build_lift(fixtures.BASE_H, sig_h))


def test_corollary_defaults_to_identity():
    sig_g, sig_h = corollary_generate(Z3)
    assert all(v == (0,) for v in sig_g.assignments.values())
    assert all(v == (0,) for v in sig_h.assignments.values())


def test_corollary_with_free_v1_need_not_satisfy_conditions():
    # v1 distinct from w breaks condition 2 for alpha of order > 2
    sig_g, sig_h = corollary_generate(Z3, x=(1,), v1=(1,))
    assert check_condition1(sig_g)
    assert not check_condition2(sig_g, sig_h)


# --- search -----------------------------------------------------------------


def test_search_matches_double_loop_oracle_on_3_edge_base():
    p4 = from_edge_list(4, [(1, 2), (2, 3), (3, 4)])
    results = search(p4, p4, Z2, SearchOptions())
    poly = [tuple(charpoly(build_lift(p4, signature_from_rank(p4, Z2, rank)))) for rank in range(8)]
    expected = [(a, b) for a in range(8) for b in range(8) if poly[a] == poly[b]]
    assert [(r.rank_g, r.rank_h) for r in results] == expected
    for r in results:
        assert r.charpoly == poly[r.rank_g] == poly[r.rank_h]
        assert r.conditions_satisfied is None
        built_g = build_lift(p4, r.sig_g)
        built_h = build_lift(p4, r.sig_h)
        assert tuple(charpoly(built_g)) == r.charpoly
        assert tuple(charpoly(built_h)) == r.charpoly


def test_search_fixture_pair_z2():
    results = search(fixtures.BASE_G, fixtures.BASE_H, Z2, SearchOptions())
    assert len(results) == 2048
    assert all(r.non_isomorphic for r in results)
    assert all(r.conditions_satisfied for r in results)
    keys = [(r.rank_g, r.rank_h) for r in results]
    assert keys == sorted(keys)
    # spot-check ten rows independently
    rng = random.Random(1)
    for r in rng.sample(results, 10):
        lg = build_lift(fixtures.BASE_G, r.sig_g)
        lh = build_lift(fixtures.BASE_H, r.sig_h)
        assert tuple(charpoly(lg)) == tuple(charpoly(lh)) == r.charpoly
        assert conditions_hold(r.sig_g, r.sig_h)


def test_search_filtered_subset():
    unfiltered = search(fixtures.BASE_G, fixtures.BASE_H, Z2, SearchOptions())
    filtered = search(fixtures.BASE_G, fixtures.BASE_H, Z2, SearchOptions(filter_by_theorem=True))
    ukeys = {(r.rank_g, r.rank_h) for r in unfiltered}
    fkeys = {(r.rank_g, r.rank_h) for r in filtered}
    assert fkeys <= ukeys
    assert fkeys == {(r.rank_g, r.rank_h) for r in unfiltered if r.conditions_satisfied}


def test_search_conditions_column_over_z2xz2():
    # Every cospectral pair of the bundled bases passes the conditions over
    # Z2, Z3 and Z4; over Z2xZ2, 6 of the 10 cospectral class pairs fail
    # them, the first failing row (of 16,449) having rank_g 64.
    z2xz2 = AbelianGroup((2, 2))

    def head(options):
        rows = iter_search(fixtures.BASE_G, fixtures.BASE_H, z2xz2, options)
        return list(takewhile(lambda r: r.rank_g <= 64, rows))

    rows = head(SearchOptions())
    assert [r.conditions_satisfied for r in rows] == [
        conditions_hold(r.sig_g, r.sig_h) for r in rows
    ]
    assert any(r.conditions_satisfied for r in rows)
    assert not all(r.conditions_satisfied for r in rows)
    assert head(SearchOptions(filter_by_theorem=True)) == [r for r in rows if r.conditions_satisfied]


def test_search_requires_cospectral_bases():
    p3 = from_edge_list(3, [(1, 2), (2, 3)])
    k3 = from_edge_list(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError):
        search(p3, k3, Z2, SearchOptions())


def test_search_rejects_filter_off_fixture():
    p4 = from_edge_list(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(WrongBaseGraph):
        search(p4, p4, Z2, SearchOptions(filter_by_theorem=True))


def test_search_budget():
    with pytest.raises(BudgetExceeded) as exc:
        search(fixtures.BASE_G, fixtures.BASE_H, Z3, SearchOptions(budget=1000))
    assert "2187" in str(exc.value)
    # generous budget passes
    assert search(fixtures.BASE_G, fixtures.BASE_H, Z2, SearchOptions(budget=128))


@pytest.mark.parametrize("budget", [0, -5])
def test_search_refuses_a_budget_below_one_eagerly(budget):
    # every signature space holds at least one signature, so such a budget could never pass
    message = f"^the budget must be at least 1 signature per side, got {budget}$"
    for entry in (rank_blocks, iter_search, search):
        with pytest.raises(BudgetExceeded, match=message):
            entry(fixtures.BASE_G, fixtures.BASE_H, Z2, SearchOptions(budget=budget))


def test_iter_search_streams_the_same_rows_and_checks_arguments_eagerly():
    rows = iter_search(fixtures.BASE_G, fixtures.BASE_H, Z2)
    assert next(rows) == search(fixtures.BASE_G, fixtures.BASE_H, Z2)[0]
    with pytest.raises(BudgetExceeded) as exc:
        iter_search(fixtures.BASE_G, fixtures.BASE_H, Z3, SearchOptions(budget=1000))
    assert "scanned" not in str(exc.value)
    assert "1000" in str(exc.value)


# --- switching classes ------------------------------------------------------


def _switch(s, potential):
    """s'(i, j) = f(i) * s(i, j) * f(j)^-1 for vertex potentials f."""
    gr = s.group
    return Signature(
        s.base,
        gr,
        {
            (i, j): compose(gr, compose(gr, potential[i], g), inverse(gr, potential[j]))
            for (i, j), g in s.assignments.items()
        },
    )


@pytest.mark.parametrize("seed", range(12))
def test_switching_keeps_charpoly_isomorphism_and_class(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    base = from_edge_list(n, [e for e in pool if rng.random() < 0.6] or pool[:1])
    gr = AbelianGroup(rng.choice([(2,), (3,), (4,), (5,), (2, 2), (6,)]))
    elems = gr.elements()
    sig = make_signature(base, gr, {e: rng.choice(elems) for e in base.edges})
    switched = _switch(sig, {v: rng.choice(elems) for v in range(1, n + 1)})
    lift, lift_switched = build_lift(base, sig), build_lift(base, switched)
    assert charpoly(lift) == charpoly(lift_switched)
    assert are_isomorphic(lift, lift_switched)[0]
    classes = SwitchingClasses(base, gr)
    cid = classes.class_of(sig)
    assert classes.class_of(switched) == cid
    rep = classes.representative(cid)
    assert classes.class_of(rep) == cid
    assert charpoly(build_lift(base, rep)) == charpoly(lift)


@pytest.mark.parametrize("orders", [(3,), (4,), (2, 2)], ids=["Z3", "Z4", "Z2xZ2"])
def test_conditions_are_switching_invariant(orders):
    # condition 1 and the conditions are equations between net voltages
    # around cycles, which switching keeps; every other pair is drawn from
    # the corollary generator, so that both outcomes occur
    gr = AbelianGroup(orders)
    rng = random.Random(f"switching-conditions/{orders}")
    elems = gr.elements()
    bases = (fixtures.BASE_G, fixtures.BASE_H)
    classes = [SwitchingClasses(base, gr) for base in bases]
    outcomes = Counter()
    for trial in range(200):
        if trial % 2:
            kw = {name: rng.choice(elems) for name in ("u", "v", "w", "x", "y", "r", "x1")}
            sigs = corollary_generate(gr, v1=kw["w"], **kw)
        else:
            sigs = [signature_from_rank(base, gr, rng.randrange(signature_count(base, gr))) for base in bases]
        switched = [_switch(s, {v: rng.choice(elems) for v in range(1, s.base.n + 1)}) for s in sigs]
        assert check_condition1(switched[0]) == check_condition1(sigs[0])
        holds = conditions_hold(*sigs)
        assert conditions_hold(*switched) == holds
        for side, s, t in zip(classes, sigs, switched):
            assert side.class_of(t) == side.class_of(s)
        outcomes[holds] += 1
    assert outcomes[True] and outcomes[False]


def test_switching_classes_are_the_net_voltages_of_the_cycle():
    # two components, beta = m - n + c = 5 - 6 + 2 = 1; the BFS forest
    # reaches vertex 2 from vertex 3, against the stored orientation of (2, 3)
    base = from_edge_list(6, [(1, 3), (2, 3), (2, 4), (3, 4), (5, 6)])
    classes = SwitchingClasses(base, Z3)
    assert classes.count == 3
    ids = classes.class_ids()
    assert len(ids) == signature_count(base, Z3)
    voltages = {}
    for rank, cid in enumerate(ids):
        sig = signature_from_rank(base, Z3, rank)
        assert classes.class_of(sig) == cid
        voltages.setdefault(cid, set()).add(net_voltage(sig, (2, 3, 4)))
    # one class per net voltage around the only cycle
    assert sorted(voltages) == [0, 1, 2]
    assert sorted(v for vs in voltages.values() for v in vs) == Z3.elements()
    # the fixture bases: 2187 signatures per side fall into 9 classes
    for base in (fixtures.BASE_G, fixtures.BASE_H):
        classes = SwitchingClasses(base, Z3)
        assert classes.count == 9
        assert [classes.class_of(classes.representative(c)) for c in range(9)] == list(range(9))


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 2), (2, 4), (2, 2, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_class_ids_agree_with_class_of_on_every_rank(orders, seed):
    # random bases of 1-5 vertices: edgeless, forests (beta = 0) and cyclic
    rng = random.Random(f"class_ids/{orders}/{seed}")
    gr = AbelianGroup(orders)
    n = rng.randint(1, 5)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [p for p in pairs if rng.random() < 0.5]
    while gr.order() ** len(edges) > 4096:
        edges.pop()
    base = from_edge_list(n, edges)
    classes = SwitchingClasses(base, gr)
    ids = classes.class_ids()
    assert len(ids) == signature_count(base, gr)
    assert set(ids) <= set(range(classes.count))
    for rank, cid in enumerate(ids):
        assert classes.class_of(signature_from_rank(base, gr, rank)) == cid


def _oracle_search(g, h, gr, filter_by_theorem=False):
    """Brute force over every rank: a charpoly, the conditions from the edge
    equations, and a canonical form per signature, joined pair by pair."""
    on_fixture = g == fixtures.BASE_G and h == fixtures.BASE_H
    same_degrees = degree_sequence(g) == degree_sequence(h)

    def per_rank(base):
        out = []
        for rank in range(signature_count(base, gr)):
            sig = signature_from_rank(base, gr, rank)
            lift = build_lift(base, sig)
            canon = canonical_form(lift).edges if same_degrees else None
            out.append((sig, tuple(charpoly(lift)), canon))
        return out

    def c1_alpha(s):
        c1 = compose(gr, s.get(2, 4), s.get(4, 5)) == compose(gr, s.get(2, 3), s.get(3, 5))
        alpha = compose(gr, compose(gr, s.get(3, 4), s.get(2, 3)), inverse(gr, s.get(2, 4)))
        return c1, alpha

    def beta_gamma(s):
        beta = compose(gr, compose(gr, s.get(3, 5), s.get(5, 6)), inverse(gr, s.get(3, 6)))
        gamma = compose(gr, compose(gr, s.get(1, 2), s.get(2, 3)), inverse(gr, s.get(1, 3)))
        return beta, gamma

    rows = []
    side_h = per_rank(h)
    for rank_g, (sig_g, poly_g, canon_g) in enumerate(per_rank(g)):
        for rank_h, (sig_h, poly_h, canon_h) in enumerate(side_h):
            if poly_g != poly_h:
                continue
            cond = None
            if on_fixture:
                c1, alpha = c1_alpha(sig_g)
                cond = c1 and _multisets_equal(gr, alpha, *beta_gamma(sig_h))
            if filter_by_theorem and not cond:
                continue
            non_iso = canon_g != canon_h if same_degrees else True
            rows.append((rank_g, rank_h, sig_g, sig_h, poly_g, cond, non_iso))
    return rows


def _fields(results):
    return [
        (r.rank_g, r.rank_h, r.sig_g, r.sig_h, r.charpoly, r.conditions_satisfied, r.non_isomorphic)
        for r in results
    ]


@pytest.mark.parametrize("filter_by_theorem", [False, True])
def test_search_equals_brute_force_oracle_on_fixture_pair_z2(filter_by_theorem):
    options = SearchOptions(filter_by_theorem=filter_by_theorem)
    found = search(fixtures.BASE_G, fixtures.BASE_H, Z2, options)
    assert _fields(found) == _oracle_search(fixtures.BASE_G, fixtures.BASE_H, Z2, filter_by_theorem)


def test_search_equals_brute_force_oracle_with_equal_degree_sequences_z3():
    # K4 minus an edge against a relabeling of itself: equal degree
    # sequences, so non-isomorphism is decided by canonical forms; beta = 2
    g = from_edge_list(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    h = relabeled(g, (3, 1, 4, 2))
    assert g != h and degree_sequence(g) == degree_sequence(h)
    assert SwitchingClasses(g, Z3).count == SwitchingClasses(h, Z3).count == 9
    found = search(g, h, Z3)
    assert found
    assert _fields(found) == _oracle_search(g, h, Z3)


def _expand(g, h, gr, options):
    """The rows of rank_blocks as (rank_g, rank_h, charpoly, conditions,
    non-isomorphic), checking each block's G class on the way."""
    class_ids = SwitchingClasses(g, gr).class_ids()
    for rank_g, class_g, poly, rows in rank_blocks(g, h, gr, options):
        assert class_g == class_ids[rank_g]
        for rank_h, cond, non_iso in rows:
            yield rank_g, rank_h, poly, cond, non_iso


def _assert_blocks_expand_to_search(g, h, gr, options=SearchOptions()):
    sigs_g, sigs_h = {}, {}
    count = 0
    for row, r in zip_longest(_expand(g, h, gr, options), iter_search(g, h, gr, options)):
        assert row == (r.rank_g, r.rank_h, r.charpoly, r.conditions_satisfied, r.non_isomorphic)
        # each signature object is compared once; rows may share one
        for sigs, base, rank, sig in ((sigs_g, g, r.rank_g, r.sig_g), (sigs_h, h, r.rank_h, r.sig_h)):
            if sigs.get(rank) is not sig:
                assert sig == signature_from_rank(base, gr, rank)
                sigs[rank] = sig
        count += 1
    assert count


@pytest.mark.parametrize("filter_by_theorem", [False, True])
@pytest.mark.parametrize("gr", [Z2, Z3], ids=["Z2", "Z3"])
def test_rank_blocks_expand_to_the_rows_of_search(gr, filter_by_theorem):
    options = SearchOptions(filter_by_theorem=filter_by_theorem)
    _assert_blocks_expand_to_search(fixtures.BASE_G, fixtures.BASE_H, gr, options)


def test_rank_blocks_expand_to_the_rows_of_search_with_canonical_forms():
    g = from_edge_list(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    _assert_blocks_expand_to_search(g, relabeled(g, (3, 1, 4, 2)), Z3)


def test_search_computes_one_canonical_form_per_paired_class(monkeypatch):
    # graphlifts.search is also the name of the search function, so the
    # module is looked up by its full name
    module = importlib.import_module("graphlifts.search")
    calls = []

    def counting(graph):
        calls.append(graph)
        return canonical_form(graph)

    monkeypatch.setattr(module, "canonical_form", counting)
    g = from_edge_list(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    h = relabeled(g, (3, 1, 4, 2))
    classes_g, classes_h = SwitchingClasses(g, Z3), SwitchingClasses(h, Z3)
    rows = search(g, h, Z3)
    paired_g = {classes_g.class_of(r.sig_g) for r in rows}
    paired_h = {classes_h.class_of(r.sig_h) for r in rows}
    expected = [build_lift(g, classes_g.representative(c)) for c in paired_g]
    expected += [build_lift(h, classes_h.representative(c)) for c in paired_h]
    assert len(calls) == len(paired_g) + len(paired_h)
    assert Counter(calls) == Counter(expected)
    # the bundled bases have different degree sequences: no canonical form
    calls.clear()
    assert search(fixtures.BASE_G, fixtures.BASE_H, Z2)
    assert calls == []


K4_MINUS_EDGE = from_edge_list(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def _cotree(classes):
    """The cotree edges of a SwitchingClasses over a group of order 2 or
    more, in key order: the edges where its last class's representative,
    every key digit a non-identity element, is not the identity."""
    rep = classes.representative(classes.count - 1)
    return [e for e in rep.base.edges if rep.assignments[e] != rep.group.identity()]


def _random_base(rng, n):
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return from_edge_list(n, [e for e in pool if rng.random() < 0.5] or pool[:1])


_WALK_BASES = [
    fixtures.BASE_G,
    fixtures.BASE_H,
    K4_MINUS_EDGE,
    *(_random_base(random.Random(f"walk-table/{seed}"), 2 + seed % 6) for seed in range(12)),
]


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (6,)], ids=["Z2", "Z3", "Z4", "Z2xZ2", "Z6"])
@pytest.mark.parametrize("base", _WALK_BASES, ids=[f"{b.n}v{len(b.edges)}e" for b in _WALK_BASES])
def test_short_walk_table_counts_every_closed_walk_by_its_crossings(base, orders):
    # the crossing vectors of a brute-force enumeration, reduced mod the
    # exponent, against the table's one dynamic programme
    gr = AbelianGroup(orders)
    classes = SwitchingClasses(base, gr)
    expected = {}
    for length, c in closed_walk_crossings(base, _cotree(classes), base.n):
        counts = expected.setdefault(tuple(x % gr.exponent() for x in c), [0] * base.n)
        counts[length - 1] += 1
    assert classes.walk_table == {c: tuple(counts) for c, counts in expected.items()}


def _power_sums(graph, top):
    """tr(A^k) for k = 1..top, from powers of A by oracles.mat_mul:
    tr(A^(a+b)) is the sum of A^a[i][j] * A^b[i][j], A being symmetric."""
    a = adjacency_matrix(graph)
    powers = [a]
    while 2 * len(powers) < top:
        powers.append(mat_mul(powers[-1], a))
    sums = [sum(a[i][i] for i in range(graph.n))]
    for k in range(2, top + 1):
        left, right = powers[k // 2 - 1], powers[k - k // 2 - 1]
        sums.append(sum(x * y for ra, rb in zip(left, right) for x, y in zip(ra, rb)))
    return tuple(sums)


_GROUPS = {
    "Z2": (2,), "Z3": (3,), "Z4": (4,), "Z5": (5,), "Z6": (6,), "Z7": (7,), "Z8": (8,),
    "Z2xZ2": (2, 2), "Z2xZ4": (2, 4), "Z3xZ3": (3, 3),
}


@pytest.mark.parametrize("orders", _GROUPS.values(), ids=_GROUPS)
def test_walk_key_times_the_order_is_the_lift_power_sums(orders):
    # every class of the bundled pair
    gr = AbelianGroup(orders)
    for base in (fixtures.BASE_G, fixtures.BASE_H):
        classes = SwitchingClasses(base, gr)
        for cid, key in enumerate(classes.walk_keys()):
            lift = build_lift(base, classes.representative(cid))
            assert tuple(gr.order() * w for w in key) == _power_sums(lift, base.n), cid


@pytest.mark.parametrize("seed", range(12))
def test_walk_key_is_a_switching_invariant(seed):
    # the key of a signature's class gives the power sums of the lift of
    # that signature switched by random potentials, not only of the
    # class representative
    rng = random.Random(f"walk-key-switching/{seed}")
    base = _random_base(rng, rng.randint(2, 7))
    gr = AbelianGroup(rng.choice([(2,), (3,), (4,), (5,), (2, 2), (6,)]))
    elems = gr.elements()
    sig = make_signature(base, gr, {e: rng.choice(elems) for e in base.edges})
    switched = _switch(sig, {v: rng.choice(elems) for v in range(1, base.n + 1)})
    classes = SwitchingClasses(base, gr)
    key = classes.walk_keys()[classes.class_of(sig)]
    assert tuple(gr.order() * w for w in key) == _power_sums(build_lift(base, switched), base.n)


_JOIN_CASES = {
    **{name: (fixtures.BASE_G, fixtures.BASE_H, AbelianGroup(orders)) for name, orders in _GROUPS.items()},
    "K4-e-Z3": (K4_MINUS_EDGE, relabeled(K4_MINUS_EDGE, (3, 1, 4, 2)), Z3),
}


@pytest.mark.parametrize("g, h, gr", _JOIN_CASES.values(), ids=_JOIN_CASES)
def test_class_join_equals_the_join_of_every_class_charpoly(g, h, gr):
    # the all-classes join: every class's lift_charpoly, paired by equality
    polys_g, polys_h = (
        [tuple(lift_charpoly(c.base, c.representative(cid))) for cid in range(c.count)]
        for c in (SwitchingClasses(g, gr), SwitchingClasses(h, gr))
    )
    join = ClassJoin(g, h, gr)
    for cg, poly_g in enumerate(polys_g):
        poly, pairs = join.pairs(cg)
        mates = [ch for ch, poly_h in enumerate(polys_h) if poly_h == poly_g]
        assert [ch for ch, _, _ in pairs] == mates
        assert poly in (None, poly_g)
        if mates:
            assert poly == poly_g


@pytest.mark.parametrize(
    "g, h, gr",
    [_JOIN_CASES[name] for name in ("Z2", "Z3", "Z4", "Z2xZ2", "K4-e-Z3")],
    ids=["Z2", "Z3", "Z4", "Z2xZ2", "K4-e-Z3"],
)
def test_class_join_pairs_each_g_class_with_the_h_classes_of_its_charpoly(g, h, gr):
    # checked against Berkowitz on each built lift, the conditions on the
    # representatives and a full isomorphism test, not the walk; a G class
    # with no mate need not have its charpoly taken
    on_fixture = g == fixtures.BASE_G
    join = ClassJoin(g, h, gr)
    classes_g, classes_h = SwitchingClasses(g, gr), SwitchingClasses(h, gr)
    reps_h = [classes_h.representative(c) for c in range(classes_h.count)]
    polys_h = [tuple(charpoly(build_lift(h, rep))) for rep in reps_h]
    for cg in range(classes_g.count):
        rep_g = classes_g.representative(cg)
        lift_g = build_lift(g, rep_g)
        poly_g = tuple(charpoly(lift_g))
        poly, pairs = join.pairs(cg)
        assert [ch for ch, _, _ in pairs] == [ch for ch, p in enumerate(polys_h) if p == poly_g]
        if pairs:
            assert poly == poly_g
        for ch, cond, non_iso in pairs:
            assert cond == (conditions_hold(rep_g, reps_h[ch]) if on_fixture else None)
            assert non_iso == (not are_isomorphic(lift_g, build_lift(h, reps_h[ch]))[0])


def _count_lift_charpolys(monkeypatch):
    module = importlib.import_module("graphlifts.search")
    calls = []

    def counting(base, s):
        calls.append(base)
        return lift_charpoly(base, s)

    monkeypatch.setattr(module, "lift_charpoly", counting)
    return calls


@pytest.mark.parametrize("gr, total, on_g", [(Z2, 4, 2), (Z3, 8, 3)], ids=["Z2", "Z3"])
def test_rank_blocks_joins_each_g_class_on_its_first_rank(gr, total, on_g, monkeypatch):
    # a G class's charpoly is taken when its first rank is reached, an H
    # class's when the first G class of its walk key needs it, and no
    # class's twice; a class whose key the other side lacks gets none
    calls = _count_lift_charpolys(monkeypatch)
    blocks = rank_blocks(fixtures.BASE_G, fixtures.BASE_H, gr)
    assert calls == []
    assert next(blocks)[0] == 0
    assert calls == [fixtures.BASE_G, fixtures.BASE_H]
    for _ in blocks:
        pass
    assert len(calls) == total
    assert calls.count(fixtures.BASE_G) == on_g


def test_class_join_takes_no_charpoly_for_a_g_class_without_a_mate(monkeypatch):
    join = ClassJoin(fixtures.BASE_G, fixtures.BASE_H, Z3)
    keys_h = set(join.classes_h.walk_keys())
    lonely = [cg for cg, key in enumerate(join.classes_g.walk_keys()) if key not in keys_h]
    assert lonely
    calls = _count_lift_charpolys(monkeypatch)
    assert [join.pairs(cg) for cg in lonely] == [(None, [])] * len(lonely)
    assert calls == []
