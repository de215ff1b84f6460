import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from graphlifts import fixtures
from graphlifts.algebra import AbelianGroup
from graphlifts.graphs import (
    Graph,
    GraphError,
    LoopEdge,
    MalformedEdgeList,
    MalformedGraph6,
    OutOfRange,
    adjacency_matrix,
    adjacency_matrix_problems,
    degree_sequence,
    emit_edge_list,
    emit_graph6,
    from_adjacency_matrix,
    from_edge_list,
    neighbor_lists,
    parse_edge_list,
    parse_graph6,
    reached,
)
from graphlifts.lifts import build_lift, make_signature

from oracles import graph6_reference


def random_graph_strategy(max_n=12):
    """Edge sets drawn from the full upper triangle of an n-vertex graph."""

    def build(draw_result):
        n, picks = draw_result
        all_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        chosen = [e for e, keep in zip(all_edges, picks) if keep]
        return from_edge_list(n, chosen)

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.booleans(),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ),
        )
    ).map(build)


def test_from_edge_list_normalizes_orientation():
    g = from_edge_list(4, [(2, 1), (3, 4), (1, 2)])
    assert g.edges == ((1, 2), (3, 4))


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(LoopEdge):
        from_edge_list(3, [(2, 2)])
    with pytest.raises(OutOfRange):
        from_edge_list(3, [(1, 4)])
    with pytest.raises(OutOfRange):
        from_edge_list(3, [(0, 2)])


def test_adjacency_matrix_shape():
    g = from_edge_list(3, [(1, 2), (2, 3)])
    m = adjacency_matrix(g)
    assert m == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert from_adjacency_matrix(m) == g


def test_from_adjacency_matrix_validation():
    with pytest.raises(Exception):
        from_adjacency_matrix([[0, 1], [0, 0]])  # asymmetric
    with pytest.raises(Exception):
        from_adjacency_matrix([[1, 0], [0, 0]])  # diagonal
    with pytest.raises(Exception):
        from_adjacency_matrix([[0, 2], [2, 0]])  # non-binary


def test_from_adjacency_matrix_raises_with_the_listed_problems():
    cases = [
        ([[0, 1], [0, 0]], ["asymmetric at (1,2)", "asymmetric at (2,1)"]),
        ([[1, 0], [0, 0]], ["nonzero diagonal at 1"]),
        ([[0, 2], [2, 0]], ["entry (1,2) is 2", "entry (2,1) is 2"]),
        ([[0, 1], [1]], ["not square: 2 rows of lengths [1, 2]"]),
    ]
    for m, problems in cases:
        assert adjacency_matrix_problems(m) == problems
        with pytest.raises(GraphError, match=re.escape("; ".join(problems))):
            from_adjacency_matrix(m)
    assert adjacency_matrix_problems(adjacency_matrix(from_edge_list(3, [(1, 2), (2, 3)]))) == []


def test_reached_is_breadth_first_from_the_starts():
    # 0-1, 0-2, 1-3, 2-3, 3-4, and the isolated vertex 5
    adj = [[1, 2], [0, 3], [0, 3], [1, 2, 4], [3], []]
    assert reached(adj, [0]) == [0, 1, 2, 3, 4]
    assert reached(adj, [4, 5]) == [4, 5, 3, 1, 2, 0]
    assert reached(adj, range(0, 6, 5)) == [0, 5, 1, 2, 3, 4]
    assert reached(adj, []) == []


def test_neighbor_lists_and_degrees():
    g = from_edge_list(4, [(1, 2), (1, 3), (1, 4)])
    assert neighbor_lists(g) == [[1, 2, 3], [0], [0], [0]]
    assert degree_sequence(g) == [3, 1, 1, 1]


@given(random_graph_strategy())
def test_adjacency_matrix_symmetric_binary(g):
    m = adjacency_matrix(g)
    n = g.n
    for i in range(n):
        assert m[i][i] == 0
        for j in range(n):
            assert m[i][j] in (0, 1)
            assert m[i][j] == m[j][i]


@given(random_graph_strategy())
def test_degree_sequence_sums_to_twice_edges(g):
    assert sum(degree_sequence(g)) == 2 * len(g.edges)


@given(random_graph_strategy())
def test_graph6_roundtrip_small(g):
    assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=30)
@given(random_graph_strategy(max_n=80))
def test_graph6_roundtrip_larger(g):
    assert parse_graph6(emit_graph6(g)) == g


def test_graph6_known_encodings():
    assert emit_graph6(Graph(1, ())) == "@"
    assert emit_graph6(from_edge_list(2, [(1, 2)])) == "A_"
    assert parse_graph6("A_") == from_edge_list(2, [(1, 2)])
    assert parse_graph6(">>graph6<<A_") == from_edge_list(2, [(1, 2)])


def test_graph6_long_form():
    g = from_edge_list(70, [(1, 70), (2, 3)])
    text = emit_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


@pytest.mark.parametrize("n", [62, 63, 128])
def test_graph6_roundtrip_across_the_long_header(n):
    # 62 is the last size with the one-byte header, 63 the first with '~'
    rng = random.Random(n)
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for density in (0.0, 0.05, 0.5, 1.0):
        g = from_edge_list(n, [e for e in pool if rng.random() < density])
        text = emit_graph6(g)
        assert text.startswith("~") == (n > 62)
        assert parse_graph6(text) == g


@pytest.mark.parametrize("n", [1, 2, 5, 62, 63, 64, 100, 128])
def test_emit_graph6_agrees_with_networkx(n):
    rng = random.Random(f"graph6/{n}")
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for density in (0.0, 0.1, 0.5, 0.9, 1.0):
        g = from_edge_list(n, [e for e in pool if rng.random() < density])
        other = nx.Graph()
        other.add_nodes_from(range(1, n + 1))
        other.add_edges_from(g.edges)
        expected = nx.to_graph6_bytes(other, nodes=range(1, n + 1), header=False).decode().rstrip("\n")
        assert emit_graph6(g) == expected


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 258])
def test_emit_graph6_matches_the_reference_encoder(n):
    rng = random.Random(f"graph6 reference/{n}")
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for density in (0.0, 0.1, 0.5, 1.0):
        g = from_edge_list(n, [e for e in pool if rng.random() < density])
        assert emit_graph6(g) == graph6_reference(g)


def test_emit_graph6_matches_the_reference_encoder_on_a_2000_vertex_lift():
    rng = random.Random("graph6 lift")
    gr = AbelianGroup((500,))
    sig = make_signature(fixtures.SQUARE, gr, {e: (rng.randrange(500),) for e in fixtures.SQUARE.edges})
    lift = build_lift(fixtures.SQUARE, sig)
    assert lift.n == 2000
    assert emit_graph6(lift) == graph6_reference(lift)


def test_parse_graph6_error_offsets():
    with pytest.raises(MalformedGraph6) as exc:
        parse_graph6("A" + chr(1))
    assert exc.value.offset == 1
    with pytest.raises(MalformedGraph6):
        parse_graph6("A")  # truncated body
    with pytest.raises(MalformedGraph6):
        parse_graph6("")
    # n = 5: ten bits in two body bytes, the last two bits padding; n = 63
    # ('~' header): 1,953 bits in 326 body bytes, the last three padding
    for text, offset in (("D?@", 2), (">>graph6<<D?@", 12), ("~??~" + "?" * 325 + "@", 329)):
        with pytest.raises(MalformedGraph6, match="nonzero padding bit") as exc:
            parse_graph6(text)
        assert exc.value.offset == offset
    for text, offset in (("D???", 3), (">>graph6<<D???", 13), ("~??~" + "?" * 327, 330)):
        with pytest.raises(MalformedGraph6, match="trailing data") as exc:
            parse_graph6(text)
        assert exc.value.offset == offset


@given(random_graph_strategy())
def test_edge_list_roundtrip(g):
    assert parse_edge_list(emit_edge_list(g)) == g


def test_parse_edge_list_comments_and_errors():
    g = parse_edge_list("# header comment\n3 2\n1 2  # inline\n2 3\n")
    assert g == from_edge_list(3, [(1, 2), (2, 3)])
    with pytest.raises(MalformedEdgeList):
        parse_edge_list("3 2\n1 2\n")
    with pytest.raises(MalformedEdgeList):
        parse_edge_list("3\n")
    with pytest.raises(MalformedEdgeList):
        parse_edge_list("3 1\n1 2 3\n")
