"""Cayley graphs, Cayley sum graphs, and mirror di-Cayley (sum) graphs as
dense 0/1 adjacency tables, with the structural predicates used elsewhere.

Adjacency convention: entry (u, v) = 1 means a directed edge u -> v.
Loops count once toward both the row and the column sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import GroupSubset


class GraphError(ValueError):
    """Invalid graph operation."""


@dataclass(frozen=True)
class Graph:
    """Dense adjacency over vertices 0..n-1; the exports take their names."""

    adjacency: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.adjacency)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise GraphError("adjacency must be square")
        adj = raw.astype(np.uint8, copy=False)
        # bool needs no check, uint8 only its maximum; any other dtype must
        # also survive the cast unchanged (0.5, 256 and -1 do not)
        if raw.dtype != bool and adj.size and (
            adj.max() > 1 or (adj is not raw and (adj != raw).any())
        ):
            raise GraphError("adjacency entries must be 0/1")
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def undirected(self) -> bool:
        return bool(np.array_equal(self.adjacency, self.adjacency.T))

    @property
    def regular_degree(self) -> int | None:
        out, inn = (self.adjacency.sum(axis=axis, dtype=np.int64) for axis in (1, 0))
        if len(out) and out.min() == out.max() == inn.min() == inn.max():
            return int(out[0])
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and np.array_equal(
            self.adjacency, other.adjacency
        )

    def __hash__(self):
        return hash((self.n, int(self.adjacency.sum())))

    def permuted(self, perm: np.ndarray | list[int]) -> "Graph":
        """Reorder vertices: new vertex i is old vertex perm[i]."""
        p = np.asarray(perm)
        return Graph(self.adjacency[np.ix_(p, p)])

    def rows(self) -> list[str]:
        """Each adjacency row as a string of 0/1 digits, in vertex order."""
        n = self.n
        text = (self.adjacency + ord("0")).tobytes().decode("ascii")   # C order, even for a view
        return [text[u * n:(u + 1) * n] for u in range(n)]

    def _names(self, labels) -> list[str]:
        """labels as a list, one name per vertex."""
        names = list(labels)
        if len(names) != self.n:
            raise GraphError("label count mismatch")
        return names

    def to_json(self, labels) -> str:
        """JSON export naming vertex i labels[i]."""
        return json.dumps(
            {
                "n": self.n,
                "labels": self._names(labels),
                "adjacency": self.rows(),
            },
            separators=(",", ":"),
        )

    def to_dot(self, labels) -> str:
        """DOT export naming vertex i labels[i]; mutual edge pairs collapse
        to a single undirected line."""
        A, L = self.adjacency.astype(bool), np.array(self._names(labels), dtype=object)
        if self.undirected:
            head, edges = "graph G {", (f'  "{a}" -- "{b}";' for a, b in
                                        zip(*(L[i] for i in np.nonzero(np.triu(A)))))
        else:    # a mutual pair once, at its first cell in row-major order
            u, v = np.nonzero(A & ~np.tril(A.T, -1))
            both = A.T[u, v] & (u != v)
            head, edges = "digraph G {", (f'  "{a}" -> "{b}"{" [dir=both]" if m else ""};'
                                          for a, b, m in zip(L[u], L[v], both.tolist()))
        return "\n".join([head, *edges, "}"]) + "\n"


# ---------------------------------------------------------------------------
# constructors


def cayley(S: GroupSubset, kind: str) -> Graph:
    """X(G,S) for kind 'difference' (edge h->g iff g h^-1 in S) or
    X^+(G,S) for kind 'sum' (edge h->g iff g h in S), over G = S.parent."""
    _check_kind(kind)
    return Graph(_rule_adjacency(S, kind))


def mirror_dicayley(S: GroupSubset, T: GroupSubset, kind: str) -> Graph:
    """MX*(G; S, T) over G = S.parent: two Cayley mirrors joined by
    T-crossing edges.

    Vertex order: all (g, 0) first in group order, then all (g, 1).
    """
    _check_kind(kind)
    if T.parent != S.parent:
        raise GraphError("connection sets over a different group")
    n = S.parent.order
    adj = np.empty((2 * n, 2 * n), dtype=np.uint8)
    adj[:n, :n] = adj[n:, n:] = _rule_adjacency(S, kind)
    adj[:n, n:] = adj[n:, :n] = _rule_adjacency(T, kind)
    return Graph(adj)


def _rule_adjacency(S: GroupSubset, kind: str) -> np.ndarray:
    """Boolean adj[h, g] = 1 iff g h^-1 (difference) or g h (sum) is in S."""
    op = S.parent.op_table
    prod = op[:, S.parent.inv_table] if kind == "difference" else op
    return S.mask()[prod].T


def _check_kind(kind: str) -> None:
    if kind not in ("difference", "sum"):
        raise GraphError(f"kind must be 'difference' or 'sum', got {kind!r}")


# ---------------------------------------------------------------------------
# structure


@dataclass(frozen=True)
class StructureReport:
    directed: bool
    loop_vertices: tuple[int, ...]
    regular_degree: int | None
    bipartite: bool | None
    components: tuple[tuple[int, ...], ...]
    twin_classes: tuple[tuple[int, ...], ...]


def structure_report(graph: Graph) -> StructureReport:
    A = graph.adjacency
    n = graph.n
    directed = not graph.undirected
    loops = tuple(int(v) for v in np.nonzero(np.diag(A))[0])

    # one breadth-first traversal of the underlying undirected graph finds
    # the components and each vertex's depth in its component's BFS tree;
    # a loop-free undirected graph is bipartite exactly when no edge joins
    # two depths of equal parity, since such an edge closes an odd cycle
    U = (A | A.T).astype(bool)
    depth = np.full(n, -1, dtype=np.int64)
    components = []
    for s in range(n):
        if depth[s] >= 0:
            continue
        frontier = comp = np.arange(n) == s
        level = 0
        while frontier.any():
            depth[frontier] = level
            comp = comp | frontier
            frontier = U[frontier].any(axis=0) & (depth < 0)
            level += 1
        components.append(tuple(np.flatnonzero(comp).tolist()))

    bipartite = None
    if not directed and not loops:
        parity = depth % 2
        bipartite = not (U & (parity[:, None] == parity[None, :])).any()

    # twins: identical neighborhoods, both outgoing and incoming
    keys = {}
    for v in range(n):
        key = (A[v].tobytes(), A[:, v].tobytes())
        keys.setdefault(key, []).append(v)
    twins = tuple(tuple(vs) for vs in keys.values())

    return StructureReport(
        directed=directed,
        loop_vertices=loops,
        regular_degree=graph.regular_degree,
        bipartite=bipartite,
        components=tuple(components),
        twin_classes=twins,
    )
