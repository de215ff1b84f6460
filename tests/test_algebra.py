import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from graphlifts.algebra import (
    AbelianGroup,
    BadElementText,
    BadGroupSpec,
    ElementNotInGroup,
    SymmetricGroup,
    berkowitz_charpoly,
    characters,
    compose,
    cyclo_int,
    cyclotomic_poly,
    fiber_action,
    format_element,
    format_group,
    inverse,
    parse_element,
    parse_group,
    perm_matrix,
    poly_divexact,
    poly_mul,
    poly_text,
    root_power,
)

from oracles import cofactor_charpoly, mat_mul

SMALL_ABELIAN = [
    AbelianGroup((2,)),
    AbelianGroup((3,)),
    AbelianGroup((4,)),
    AbelianGroup((2, 2)),
    AbelianGroup((6,)),
    AbelianGroup((2, 4)),
    AbelianGroup((3, 3)),
    AbelianGroup((2, 2, 3)),
]


# --- group basics ---------------------------------------------------------


def abelian_groups():
    return st.sampled_from(SMALL_ABELIAN)


@given(abelian_groups(), st.data())
def test_abelian_group_axioms(gr, data):
    elems = gr.elements()
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    c = data.draw(st.sampled_from(elems))
    assert compose(gr, a, b) == compose(gr, b, a)
    assert compose(gr, compose(gr, a, b), c) == compose(gr, a, compose(gr, b, c))
    assert compose(gr, a, gr.identity()) == a
    assert compose(gr, a, inverse(gr, a)) == gr.identity()


def test_elements_order_identity_first():
    gr = AbelianGroup((2, 3))
    assert gr.elements() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert gr.order() == 6
    assert gr.exponent() == 6
    assert AbelianGroup((2, 4)).exponent() == 4


def test_symmetric_group_compose_applies_left_first():
    s3 = SymmetricGroup(3)
    a = parse_element(s3, "(1,2)")
    b = parse_element(s3, "(2,3)")
    # apply a then b: 1 -> 2 -> 3
    assert compose(s3, a, b)[0] == 3
    assert compose(s3, a, inverse(s3, a)) == s3.identity()
    assert s3.order() == 6


def test_group_spec_parsing():
    assert parse_group("Z2") == AbelianGroup((2,))
    assert parse_group("Z2xZ4") == AbelianGroup((2, 4))
    assert parse_group("S3") == SymmetricGroup(3)
    assert format_group(AbelianGroup((2, 4))) == "Z2xZ4"
    assert format_group(SymmetricGroup(4)) == "S4"
    for bad in ("", "Z", "Z0", "Zx2", "S", "K4", "Z2x", "z2"):
        with pytest.raises(BadGroupSpec):
            parse_group(bad)


def test_element_text_roundtrip_abelian():
    gr = AbelianGroup((2, 4))
    for e in gr.elements():
        assert parse_element(gr, format_element(gr, e)) == e
    single = AbelianGroup((5,))
    assert parse_element(single, "3") == (3,)
    with pytest.raises(BadElementText):
        parse_element(single, "5")
    with pytest.raises(BadElementText):
        parse_element(gr, "(1)")


def test_element_text_roundtrip_symmetric():
    s4 = SymmetricGroup(4)
    from itertools import permutations

    for e in permutations(range(1, 5)):
        assert parse_element(s4, format_element(s4, e)) == e
    assert parse_element(s4, "id") == (1, 2, 3, 4)
    assert parse_element(s4, "(1,2,3)") == (2, 3, 1, 4)
    with pytest.raises(BadElementText):
        parse_element(s4, "(1,2)(2,3)")  # not disjoint
    with pytest.raises(BadElementText):
        parse_element(s4, "(1,5)")


def test_compose_rejects_foreign_elements():
    gr = AbelianGroup((2,))
    with pytest.raises(ElementNotInGroup):
        compose(gr, (0,), (2,))
    with pytest.raises(ElementNotInGroup):
        inverse(gr, (0, 0))
    with pytest.raises(BadGroupSpec):
        AbelianGroup((0,))


# --- regular representation ----------------------------------------------


@pytest.mark.parametrize(
    "orders",
    [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6)],
)
def test_perm_matrix_is_group_homomorphism(orders):
    gr = AbelianGroup(orders)
    elems = gr.elements()
    ident = [[int(i == j) for j in range(len(elems))] for i in range(len(elems))]
    assert perm_matrix(gr, gr.identity()) == ident
    for e in elems:
        assert gr.index(e) == elems.index(e)
    for bad in (tuple(orders), (0,) * (len(orders) + 1), (-1,) + (0,) * (len(orders) - 1), [0] * len(orders)):
        with pytest.raises(ElementNotInGroup):
            gr.index(bad)
        with pytest.raises(ElementNotInGroup):
            fiber_action(gr, bad)
    for a in elems:
        assert fiber_action(gr, a) == [elems.index(compose(gr, e, a)) for e in elems]
        pa = perm_matrix(gr, a)
        assert all(sum(row) == 1 for row in pa)
        assert all(sum(col) == 1 for col in zip(*pa))
        for b in elems:
            assert mat_mul(pa, perm_matrix(gr, b)) == perm_matrix(gr, compose(gr, a, b))


# --- cyclotomic arithmetic -------------------------------------------------


@pytest.mark.parametrize("k", list(range(1, 31)))
def test_cyclotomic_poly_divides_x_k_minus_1(k):
    phi = list(cyclotomic_poly(k))
    xk_minus_1 = [-1] + [0] * (k - 1) + [1]
    q = poly_divexact(xk_minus_1, phi)
    assert poly_mul(q, phi) == xk_minus_1


def test_cyclotomic_poly_known_values():
    assert list(cyclotomic_poly(1)) == [-1, 1]
    assert list(cyclotomic_poly(2)) == [1, 1]
    assert list(cyclotomic_poly(3)) == [1, 1, 1]
    assert list(cyclotomic_poly(4)) == [1, 0, 1]
    assert list(cyclotomic_poly(6)) == [1, -1, 1]
    assert list(cyclotomic_poly(12)) == [1, 0, -1, 0, 1]


@given(st.integers(min_value=1, max_value=15), st.data())
def test_root_powers_cycle(k, data):
    t = data.draw(st.integers(min_value=0, max_value=3 * k))
    w = root_power(k, t)
    assert w == root_power(k, t % k)
    prod = cyclo_int(k, 1)
    for _ in range(k):
        prod = prod * root_power(k, 1)
    assert prod.equals_integer(1)


@given(st.integers(min_value=1, max_value=12), st.data())
def test_cyclo_ring_axioms(k, data):
    def elem():
        t = data.draw(st.integers(min_value=0, max_value=k - 1))
        m = data.draw(st.integers(min_value=-3, max_value=3))
        return root_power(k, t) + cyclo_int(k, m)

    a, b, c = elem(), elem(), elem()
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == cyclo_int(k, 0)
    assert a * cyclo_int(k, 1) == a


def test_cyclo_equals_integer():
    # 1 + w + w^2 = 0 for the cube root of unity
    s = cyclo_int(3, 1) + root_power(3, 1) + root_power(3, 2)
    assert s.equals_integer(0)
    assert s.as_integer() == 0
    assert not root_power(3, 1).equals_integer(1)
    assert root_power(3, 1).as_integer() is None
    assert cyclo_int(4, -7).as_integer() == -7


# --- characters ------------------------------------------------------------


@pytest.mark.parametrize(
    "orders",
    [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6)],
)
def test_character_multiplicativity_and_roots(orders):
    gr = AbelianGroup(orders)
    chis = characters(gr)
    assert len(chis) == gr.order()
    elems = gr.elements()
    for chi in chis:
        for a in elems:
            power = cyclo_int(chi.value(a).modulus, 1)
            for _ in range(gr.order()):
                power = power * chi.value(a)
            assert power.equals_integer(1)
            assert (chi.value(a) * chi.inverse_value(a)).equals_integer(1)
            for b in elems:
                assert chi.value(compose(gr, a, b)) == chi.value(a) * chi.value(b)


@pytest.mark.parametrize(
    "orders",
    [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6)],
)
def test_character_completeness(orders):
    gr = AbelianGroup(orders)
    chis = characters(gr)
    for g in gr.elements():
        total = cyclo_int(chis[0].value(g).modulus, 0)
        for chi in chis:
            total = total + chi.value(g)
        expect = gr.order() if g == gr.identity() else 0
        assert total.equals_integer(expect)


def test_character_orthogonality():
    gr = AbelianGroup((2, 3))
    chis = characters(gr)
    for i, ci in enumerate(chis):
        for j, cj in enumerate(chis):
            total = cyclo_int(ci.value(gr.identity()).modulus, 0)
            for a in gr.elements():
                total = total + ci.value(a) * cj.inverse_value(a)
            assert total.equals_integer(gr.order() if i == j else 0)


def test_trivial_character_is_first():
    gr = AbelianGroup((4,))
    chi0 = characters(gr)[0]
    assert all(chi0.value(a).equals_integer(1) for a in gr.elements())


# --- characteristic polynomial --------------------------------------------


def test_berkowitz_base_cases():
    assert berkowitz_charpoly([]) == [1]
    assert berkowitz_charpoly([[5]]) == [-5, 1]
    assert berkowitz_charpoly([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_berkowitz_matches_cofactor_expansion():
    rng = random.Random(20240817)
    for _ in range(250):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert berkowitz_charpoly(m) == cofactor_charpoly(m)


def test_berkowitz_over_fractions():
    m = [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1, 3)]]
    got = berkowitz_charpoly(m)
    assert got == [Fraction(1, 6), Fraction(-5, 6), Fraction(1)]


def test_poly_text_highest_first():
    assert poly_text([-1, 4, 7, -4, -7, 0, 1]) == "[1, 0, -7, -4, 7, 4, -1]"
    assert poly_text([1]) == "[1]"
    assert poly_text([]) == "[0]"
