"""Graph constructors and structural predicates."""

import json

import numpy as np
import pytest

from spectra_forge import algebra as alg
from spectra_forge import graphs as gr
from spectra_forge import theorems as th

from oracles import disjoint_union, random_instance, small_isomorphic, with_loops


def c4_graph():
    z4 = alg.cyclic(4)
    return gr.cayley(alg.subset(z4, [1, 3]), "difference")


@pytest.mark.parametrize("bad", [
    np.array([[0, 0.5], [0.5, 0]]),
    np.array([[0, 256], [256, 0]]),
    np.array([[0, -1], [-1, 0]]),
    np.array([[0, 2], [2, 0]], dtype=np.uint8),
])
def test_graph_rejects_entries_other_than_0_1(bad):
    with pytest.raises(gr.GraphError):
        gr.Graph(bad)


def test_graph_accepts_0_1_of_any_dtype():
    want = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    for dtype in (bool, np.uint8, np.int64, float):
        g = gr.Graph(want.astype(dtype))
        assert g.adjacency.dtype == np.uint8 and np.array_equal(g.adjacency, want)


def test_cayley_c4():
    g = c4_graph()
    want = np.array(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.uint8
    )
    assert np.array_equal(g.adjacency, want)
    assert g.undirected and g.regular_degree == 2 and not np.diag(g.adjacency).any()


def test_cayley_sum_loops():
    z3 = alg.cyclic(3)
    g = gr.cayley(alg.subset(z3, [1, 2]), "sum")
    assert g.undirected
    # loop at x iff 2x in S: x = 1 (2 in S) and x = 2 (4 = 1 in S)
    assert np.array_equal(np.diag(g.adjacency), [0, 1, 1])


def test_cayley_empty_set():
    z5 = alg.cyclic(5)
    g = gr.cayley(alg.subset(z5, []), "difference")
    assert g.adjacency.sum() == 0 and g.n == 5


def test_cayley_parent_mismatch():
    # a connection set carries its group; two sets meet only in a mirror graph
    z4, z5 = alg.cyclic(4), alg.cyclic(5)
    with pytest.raises(gr.GraphError, match="different group"):
        gr.mirror_dicayley(alg.subset(z5, [1]), alg.subset(z4, [1]), "difference")
    assert gr.mirror_dicayley(alg.subset(z4, [1]), alg.subset(alg.cyclic(4), [0]),
                              "difference").n == 8      # an equal group built apart
    with pytest.raises(gr.GraphError):
        gr.cayley(alg.subset(z4, [1]), "nope")


def test_mirror_dicayley_degrees():
    z4 = alg.cyclic(4)
    S = alg.subset(z4, [1, 3])
    one_match = gr.mirror_dicayley(S, alg.subset(z4, [0]), "difference")
    assert one_match.n == 8 and one_match.regular_degree == 3
    both = gr.mirror_dicayley(S, S, "difference")
    assert both.regular_degree == 4
    full = gr.mirror_dicayley(S, S.with_identity(), "difference")
    assert full.regular_degree == 5


def test_mirror_trivial_cases():
    z3 = alg.cyclic(3)
    empty = alg.subset(z3, [])
    e = alg.subset(z3, [0])
    # MX(G; empty, {e}) is a perfect matching: n disjoint 2-paths
    m = gr.mirror_dicayley(empty, e, "difference")
    p2 = gr.Graph(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert small_isomorphic(m, disjoint_union([p2, p2, p2]))
    # the sum version is also a perfect matching (crossing pairs g with -g)
    ms = gr.mirror_dicayley(empty, e, "sum")
    assert small_isomorphic(ms, disjoint_union([p2, p2, p2]))

    # MX(G; {e}, {e}) = n looped 2-paths
    mee = gr.mirror_dicayley(e, e, "difference")
    p2l = with_loops(p2)
    assert small_isomorphic(mee, disjoint_union([p2l, p2l, p2l]))

    # MX+(G; {e}, {e}): one looped 2-path per self-inverse element and one
    # 4-cycle per inverse pair
    mps = gr.mirror_dicayley(e, e, "sum")
    c4 = c4_graph()
    assert small_isomorphic(mps, disjoint_union([c4, p2l]))


def test_with_loops():
    p2 = gr.Graph(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    looped = with_loops(p2)
    assert np.diag(looped.adjacency).all()
    assert with_loops(looped) == looped
    empty2 = gr.Graph(np.zeros((2, 2), dtype=np.uint8))
    assert np.array_equal(with_loops(empty2).adjacency, np.eye(2, dtype=np.uint8))


def test_structure_report_c4():
    rep = gr.structure_report(c4_graph())
    assert not rep.directed and rep.bipartite and rep.regular_degree == 2
    assert len(rep.components) == 1
    assert all(len(c) <= 2 for c in rep.twin_classes)


def test_twins_z16_vs_z4xz4():
    z16 = alg.cyclic(16)
    S1 = alg.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])
    g1 = gr.cayley(S1, "difference")
    rep1 = gr.structure_report(g1)
    assert rep1.directed
    twins = {frozenset(c) for c in rep1.twin_classes if len(c) > 1}
    assert twins == {frozenset({v, (v + 8) % 16}) for v in range(8)}

    z44 = alg.direct_product(alg.cyclic(4), alg.cyclic(4))
    S2 = alg.subset(
        z44, [4 * a + b for (a, b) in
              [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3)]]
    )
    rep2 = gr.structure_report(gr.cayley(S2, "difference"))
    assert not any(len(c) > 1 for c in rep2.twin_classes)


def test_bipartite_query_requires_undirected_loopless():
    z3 = alg.cyclic(3)
    directed = gr.cayley(alg.subset(z3, [1]), "difference")
    assert gr.structure_report(directed).bipartite is None
    looped = with_loops(c4_graph())
    assert gr.structure_report(looped).bipartite is None
    assert gr.structure_report(c4_graph()).bipartite


def test_directedness_criteria_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        G, S = random_instance(rng, exclude_identity=False)
        mem, inv_mem = set(S), {int(G.inv_table[s]) for s in S}
        g = gr.cayley(S, "difference")
        assert g.undirected == (mem == inv_mem)
        A = g.adjacency
        off = A & A.T & ~np.eye(G.order, dtype=bool)
        no_antiparallel = not off.any()
        loops_ok = not np.diag(A).any()
        assert (no_antiparallel and loops_ok) == (not mem & inv_mem)

        gs = gr.cayley(S, "sum")
        assert gs.undirected == alg.is_normal(S)
        # sum graph loops exactly at solutions of x*x in S
        want = [1 if int(G.op_table[x, x]) in S else 0 for x in G.elements()]
        assert np.array_equal(np.diag(gs.adjacency), want)


def test_mirror_row_sums_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        _, S = random_instance(rng, exclude_identity=False)
        T = th.t_subset(S, ("identity", "S", "S_and_identity")[int(rng.integers(3))])
        for kind in ("difference", "sum"):
            m = gr.mirror_dicayley(S, T, kind)
            assert m.regular_degree == len(S) + len(T)


def test_union_identity_random():
    rng = np.random.default_rng(13)
    for _ in range(15):
        G, S = random_instance(rng)
        members = rng.choice(G.order, size=max(1, G.order // 3), replace=False)
        T1 = alg.subset(G, members.tolist())
        members2 = rng.choice(G.order, size=max(1, G.order // 4), replace=False)
        T2 = alg.subset(G, members2.tolist())
        for kind in ("difference", "sum"):
            [r] = th.check_union_identity(S, T1, T2, kind)
            assert r.outcome == "pass", r.witness


def test_json_round_trip():
    g = gr.mirror_dicayley(alg.subset(alg.cyclic(4), [1, 3]),
                           alg.subset(alg.cyclic(4), [0]), "difference")
    names = [f"({v},{i})" for i in (0, 1) for v in range(4)]
    data = json.loads(g.to_json(names))
    adj = np.array([[int(c) for c in row] for row in data["adjacency"]], dtype=np.uint8)
    assert gr.Graph(adj) == g and data["labels"] == names


def test_exports_check_the_name_count():
    g = c4_graph()
    for export in (g.to_json, g.to_dot):
        with pytest.raises(gr.GraphError, match="label count mismatch"):
            export(["0", "1", "2"])


def test_rows_equal_per_cell_join():
    from spectra_forge import products as pr

    z6 = alg.cyclic(6)
    S, T = alg.subset(z6, [1, 2]), alg.subset(z6, [0, 3])
    cay = gr.cayley(S, "sum")
    graphs = [
        cay,
        gr.mirror_dicayley(S, T, "difference"),
        pr.named_product(cay, pr.path2(True), "strong"),
        cay.permuted([3, 0, 5, 1, 4, 2]),
        gr.Graph(gr.cayley(S, "difference").adjacency.T),   # a non-contiguous view
        gr.Graph(np.zeros((0, 0), dtype=np.uint8)),
    ]
    for g in graphs:
        assert g.rows() == ["".join(str(int(x)) for x in row) for row in g.adjacency]


def test_dot_export():
    text = c4_graph().to_dot("abcd")
    assert text.startswith("graph") and '"a" -- "b"' in text
    z3 = alg.cyclic(3)
    directed = gr.cayley(alg.subset(z3, [1]), "difference")
    text2 = directed.to_dot(["0", "1", "2"])
    assert text2.startswith("digraph") and '"0" -> "1"' in text2


def test_small_isomorphic():
    c4 = c4_graph()
    path4 = gr.Graph(
        np.array(
            [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=np.uint8
        )
    )
    assert not small_isomorphic(c4, path4)
    relabeled = c4.permuted([2, 0, 3, 1])
    assert small_isomorphic(c4, relabeled)
    with pytest.raises(gr.GraphError):
        big = gr.Graph(np.zeros((11, 11), dtype=np.uint8))
        small_isomorphic(big, big)
