"""Simple undirected graphs on {0..n-1} with the named families and
operations used by the exclusivity-graph machinery.

Adjacency is stored as one bitset row per vertex (Python ints), which keeps
set algebra cheap for the n <= 64 sizes this package works at.  Graphs are
immutable; every operation returns a new Graph.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid construction parameters or an unsupported graph size."""


def _index(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int in lo..hi (an end left as None is open), else
    GraphError, which is a ValueError.  Every integer the package takes from
    a caller or a JSON document is read here, before anything is built from
    it: operator.index refuses a float such as 1.7 instead of truncating it,
    and a bool (a JSON true) is refused too, though Python counts it as 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise GraphError(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and value < lo:
        raise GraphError(f"{what} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise GraphError(f"{what} must be at most {hi}, got {value}")
    return value


def _reals(value, what: str, shape=(), lo: float | None = None, hi: float | None = None):
    """value as a float when shape is (), else as a float array of that shape
    (an axis given as None may have any length), every entry finite and in
    lo..hi (an end left as None is open); else GraphError, which is a
    ValueError.  Every real number the package takes from a caller or a JSON
    document is read here, before any work is done with it: a NaN passes
    every comparison, so it would otherwise reach an answer.  A string is
    refused even when it spells a number, and so is a bool, so a JSON
    number field written as text or as true/false is an error."""
    try:
        arr = np.asarray(value)
        # numpy casts a complex array to float by dropping the imaginary
        # part, a string to the number it spells and a bool to 0 or 1, also
        # a bool in a list of numbers
        if arr.dtype.kind == "c":
            raise TypeError(f"got {arr.dtype.name}")
        if arr.dtype.kind in "SU" or _holds(value, str | bytes):
            raise TypeError("got text")
        if arr.dtype.kind == "b" or _holds(value, bool | np.bool_):
            raise TypeError("got bool")
        arr = np.asarray(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"{what} must be real numbers: {exc}") from None
    if arr.ndim != len(shape) or any(s is not None and s != m for s, m in zip(shape, arr.shape)):
        dims = ", ".join("any" if s is None else str(s) for s in shape)
        raise GraphError(f"{what} must have shape ({dims}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise GraphError(f"{what} must be finite")
    if lo is not None and (arr < lo).any():
        raise GraphError(f"{what} must be at least {lo}, got {arr.min()}")
    if hi is not None and (arr > hi).any():
        raise GraphError(f"{what} must be at most {hi}, got {arr.max()}")
    return arr if arr.ndim else float(arr)


def _holds(value, kinds) -> bool:
    """Is value, or an entry of it at any depth of nested lists, tuples and
    object arrays, an instance of kinds?"""
    if isinstance(value, np.ndarray) and value.dtype.kind == "O":
        value = value.tolist()
    if isinstance(value, list | tuple):
        return any(_holds(v, kinds) for v in value)
    return isinstance(value, kinds)


def _key(text, what: str) -> tuple[int, ...]:
    """A JSON table key "i,j,..." as its integers, refused unless spelled as
    str spells them: int() reads "01", "+1" and " 1" as 1 too, so a second
    spelling of a key would otherwise merge into the first."""
    idx = tuple(int(tok) for tok in str(text).split(","))
    if ",".join(map(str, idx)) != str(text):
        raise GraphError(f"{what} key {text!r} is not spelled {','.join(map(str, idx))!r}")
    return idx


def _tolerance(value, what: str) -> float:
    """A positive tolerance, read through _reals."""
    tol = _reals(value, what)
    if tol <= 0:
        raise GraphError(f"{what} must be positive, got {tol}")
    return tol


def _bits(mask: int):
    """Iterate set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: irreflexive, symmetric adjacency on n >= 1 vertices."""

    n: int
    rows: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        _index(self.n, "vertex count", 1, MAX_VERTICES)
        if len(self.rows) != self.n:
            raise GraphError("adjacency rows do not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise GraphError(f"adjacency row {i} references vertices outside 0..{self.n - 1}")
            if row >> i & 1:
                raise GraphError(f"self-loop at vertex {i}")
        # bit matrix of the rows: adj[i, j] = bit j of row i; the first
        # asymmetric pair in row-major order is the one to report
        adj = np.unpackbits(np.array(self.rows, dtype="<u8").view(np.uint8), bitorder="little")
        adj = adj.reshape(self.n, 64)[:, : self.n].astype(bool)
        bad = np.argwhere(adj & ~adj.T)
        if bad.size:
            i, j = bad[0].tolist()
            raise GraphError(f"adjacency not symmetric at ({i},{j})")
        if self.labels is not None and len(self.labels) != self.n:
            raise GraphError("label count does not match vertex count")

    # -- basic queries ------------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list with i < j."""
        out = []
        for i in range(self.n):
            row = self.rows[i] >> (i + 1) << (i + 1)
            for j in _bits(row):
                out.append((i, j))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def adjacency_matrix(self):
        a = np.zeros((self.n, self.n))
        for i, j in self.edges():
            a[i, j] = a[j, i] = 1.0
        return a

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            new = 0
            for i in _bits(frontier):
                new |= self.rows[i]
            frontier = new & ~seen
            seen |= new
        return seen == (1 << self.n) - 1

    def to_json_dict(self) -> dict:
        d = {"n": self.n, "edges": [[i, j] for i, j in self.edges()]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d


def from_edges(n: int, edges, labels=None) -> Graph:
    n = _index(n, "vertex count", 1, MAX_VERTICES)
    rows = [0] * n
    for i, j in edges:
        i, j = _index(i, "edge end", 0, n - 1), _index(j, "edge end", 0, n - 1)
        if i == j:
            raise GraphError(f"self-loop at vertex {i}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows), tuple(labels) if labels is not None else None)


def from_json_dict(d: dict) -> Graph:
    try:
        n, edges = d["n"], d["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"graph JSON needs 'n' and 'edges': {exc}") from exc
    return from_edges(n, edges, d.get("labels"))


# -- named families ---------------------------------------------------------


def empty_graph(n: int) -> Graph:
    n = _index(n, "vertex count", 1, MAX_VERTICES)
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    n = _index(n, "vertex count", 1, MAX_VERTICES)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def cycle_graph(n: int) -> Graph:
    return circulant_graph(_index(n, "cycle length", 3, MAX_VERTICES), (1,))


def path_graph(n: int) -> Graph:
    n = _index(n, "path length", 1, MAX_VERTICES)
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def circulant_graph(n: int, offsets) -> Graph:
    n = _index(n, "vertex count", 1, MAX_VERTICES)
    offs = sorted(set(_index(o, "circulant offset", 1, n // 2) for o in offsets))
    if not offs:
        raise GraphError("circulant needs a nonempty offset set")
    rows = [0] * n
    for i in range(n):
        for o in offs:
            rows[i] |= 1 << ((i + o) % n)
            rows[i] |= 1 << ((i - o) % n)
    return Graph(n, tuple(rows))


def prism_graph(n: int) -> Graph:
    """Two aligned n-cycles joined by a perfect matching (2n vertices)."""
    n = _index(n, "prism cycle length", lo=3)
    _index(2 * n, "prism vertex count", hi=MAX_VERTICES)
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + 1) % n))
        edges.append((i, n + i))
    labels = [f"t{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    return from_edges(2 * n, edges, labels)


def moebius_ladder(m: int) -> Graph:
    """Cycle of even length m with all m/2 diameters added."""
    m = _index(m, "moebius ladder order", 4, MAX_VERTICES)
    if m % 2:
        raise GraphError("moebius ladder needs even order m >= 4")
    return circulant_graph(m, {1, m // 2})


def _k_subset_graph(m: int, k: int, meet: int, name: str) -> Graph:
    """k-subsets of an m-set (integers, 0 <= k <= m), adjacent iff they share
    exactly `meet` elements, labelled by their members counted from 1.  The
    vertex count C(m, k) is checked before any subset is listed."""
    if 0 < k < m:
        # C(m, k) >= m here, so a ground set above the cap is refused before
        # math.comb, which takes seconds once m and k are in the millions
        _index(m, f"{name} ground set", hi=MAX_VERTICES)
    count = _index(math.comb(m, k), f"{name} vertex count", hi=MAX_VERTICES)
    verts = list(itertools.combinations(range(m), k))
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(count), 2)
        if len(set(verts[a]) & set(verts[b])) == meet
    ]
    labels = ["".join(str(x + 1) for x in v) for v in verts]
    return from_edges(count, edges, labels)


def johnson_graph(m: int, k: int) -> Graph:
    """k-subsets of an m-set, adjacent iff the subsets share k-1 elements."""
    m = _index(m, "johnson graph m", lo=1)
    k = _index(k, "johnson graph k", 1, m)
    return _k_subset_graph(m, k, k - 1, "johnson graph")


def kneser_graph(m: int, k: int) -> Graph:
    """k-subsets of an m-set, adjacent iff disjoint."""
    m = _index(m, "kneser graph m", lo=0)
    return _k_subset_graph(m, _index(k, "kneser graph k", 0, m), 0, "kneser graph")


def petersen_graph() -> Graph:
    return kneser_graph(5, 2)


def subset_intersection_graph(q: int, s: int) -> Graph:
    """q-subsets of a 2q-set, adjacent iff the intersection has exactly s
    elements; unlabelled."""
    q = _index(q, "subset intersection family q", lo=1)
    s = _index(s, "subset intersection family s", 0, q - 1)
    g = _k_subset_graph(2 * q, q, s, "subset intersection family")
    return Graph(g.n, g.rows)


def build_family(family: str, **params) -> Graph:
    """Build a named family graph from CLI-style parameters."""
    try:
        if family == "cycle":
            return cycle_graph(params["n"])
        if family == "path":
            return path_graph(params["n"])
        if family == "complete":
            return complete_graph(params["n"])
        if family == "prism":
            return prism_graph(params["n"])
        if family == "moebius":
            return moebius_ladder(params["n"])
        if family == "circulant":
            return circulant_graph(params["n"], params["offsets"])
        if family == "johnson_gqs":
            return subset_intersection_graph(params["q"], params["s"])
        if family == "johnson":
            return johnson_graph(params["m"], params["k"])
        if family == "petersen":
            return petersen_graph()
    except KeyError as exc:
        raise GraphError(f"family '{family}' is missing parameter {exc}") from exc
    raise GraphError(f"unknown graph family '{family}'")


# -- operations -------------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full ^ g.rows[i]) & ~(1 << i) for i in range(g.n))
    return Graph(g.n, rows, g.labels)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    labels = tuple(
        [f"L.{g1.label(i)}" for i in range(g1.n)] + [f"R.{g2.label(i)}" for i in range(g2.n)]
    )
    return Graph(n, tuple(rows), labels)


def direct_cosum(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    base = disjoint_union(g1, g2)
    left = (1 << g1.n) - 1
    right = ((1 << base.n) - 1) ^ left
    rows = list(base.rows)
    for i in range(g1.n):
        rows[i] |= right
    for i in range(g1.n, base.n):
        rows[i] |= left
    return Graph(base.n, tuple(rows), base.labels)


def _twin_cross_pairs(g: Graph) -> list[tuple[int, int]]:
    """All ordered cross pairs (u in copy 0, v in copy 1) that twinning joins."""
    return [(u, v) for u, v in itertools.product(range(g.n), repeat=2) if g.has_edge(u, v)]


def duplication(g: Graph) -> Graph:
    """Two disjoint copies of g."""
    n = 2 * g.n
    rows = list(g.rows) + [r << g.n for r in g.rows]
    labels = tuple(
        [f"{g.label(i)}.0" for i in range(g.n)] + [f"{g.label(i)}.1" for i in range(g.n)]
    )
    return Graph(n, tuple(rows), labels)


def partial_twinning(g: Graph, kept_cross_edges) -> Graph:
    """Duplication of g plus the given cross edges (u in copy 0, v in copy 1).

    Every kept pair must be an edge of g; those are exactly the cross edges the
    full twinning would create.
    """
    base = duplication(g)
    rows = list(base.rows)
    for u, v in kept_cross_edges:
        u, v = _index(u, "cross pair end", 0, g.n - 1), _index(v, "cross pair end", 0, g.n - 1)
        if not g.has_edge(u, v):
            raise GraphError(f"cross pair ({u},{v}) is not a legal twinning cross edge")
        rows[u] |= 1 << (g.n + v)
        rows[g.n + v] |= 1 << u
    return Graph(base.n, tuple(rows), base.labels)


def twinning(g: Graph) -> Graph:
    """Two copies of g with cross edges wherever the originals are adjacent."""
    return partial_twinning(g, _twin_cross_pairs(g))


# -- isomorphism and vertex transitivity -------------------------------------


def _iso_search(g1: Graph, g2: Graph, c1: list[int], c2: list[int], changed):
    """Colour-preserving isomorphism g1 -> g2, or None.

    Both colourings are refined side by side until no cell splits: a
    vertex's signature is its colour and its neighbour count in each cell in
    `changed` (its other counts follow from these and its colour), named in
    sorted order so that both graphs share colour names.  Then the first g1
    vertex of the smallest nontrivial cell is individualised against each g2
    vertex of that cell in turn, which changes only the new singleton cell.
    """

    def signatures(g, c):
        cells = [sum(1 << i for i, col in enumerate(c) if col == x) for x in changed]
        return [(col, *[(row & m).bit_count() for m in cells]) for col, row in zip(c, g.rows)]

    while changed:
        s1, s2 = signatures(g1, c1), signatures(g2, c2)
        if sorted(s1) != sorted(s2):
            return None
        names = {s: x for x, s in enumerate(sorted(set(s1)))}
        c1, c2 = [names[s] for s in s1], [names[s] for s in s2]
        parts = Counter(s[0] for s in names)
        changed = [x for s, x in names.items() if parts[s[0]] > 1]
    k = max(c1) + 1
    if k == g1.n:
        m = [c2.index(col) for col in c1]
        return m if all(g2.rows[m[i]] >> m[j] & 1 for i, j in g1.edges()) else None
    cell = min((size, col) for col, size in Counter(c1).items() if size > 1)[1]
    u = c1.index(cell)
    # a target that an automorphism of (g2, c2) takes to a failed one fails
    # too, so `failed` is closed under the automorphisms found so far
    c1u, searched, autos, failed = c1[:u] + [k] + c1[u + 1:], [], [], set()
    for v in (j for j, col in enumerate(c2) if col == cell):
        if v in failed:
            continue
        c2v = c2[:v] + [k] + c2[v + 1:]
        for c2w in searched:
            auto = _iso_search(g2, g2, c2w, c2v, (k,))
            if auto is not None:
                autos.append(auto)
                break
        else:
            found = _iso_search(g1, g2, c1u, c2v, (k,))
            if found is not None:
                return found
            searched.append(c2v)
        failed = _closure(failed | {v}, autos)
    return None


def _closure(points: set[int], maps: list[list[int]]) -> set[int]:
    """The least superset of `points` that every map in `maps` sends into itself."""
    size = 0
    while size != len(points):
        size = len(points)
        points = points | {a[x] for a in maps for x in points}
    return points


def _iso_map(g1: Graph, g2: Graph, fixed: tuple[int, int] | None = None):
    """Edge-preserving bijection g1 -> g2 by colour refinement and
    individualisation (McKay and Piperno, J. Symb. Comput. 2014), or None.
    `fixed` = (u, v) forces u -> v, as the automorphism search needs."""
    c1, c2 = [0] * g1.n, [0] * g1.n
    if fixed is not None:
        c1[fixed[0]] = c2[fixed[1]] = 1
    return _iso_search(g1, g2, c1, c2, range(max(c1) + 1))


def isomorphism_witness(g1: Graph, g2: Graph) -> list[int] | None:
    """A vertex map g1 -> g2 that preserves edges, or None."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    return _iso_map(g1, g2)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return isomorphism_witness(g1, g2) is not None


def _cayley_group(n: int, rows: tuple[int, ...]) -> tuple[int, int] | None:
    """(a, b) when the graph is a Cayley graph of Z_a x Z_b in its own
    labelling, vertex u*b + v being the element (u, v), else None.

    Circulants are found as (n, 1) and prisms as (2, n); the conormal
    product of an a-vertex and a b-vertex circulant is a Cayley graph of
    Z_a x Z_b.  The divisors b of n are tried in increasing order.  The two
    unit translations generate the group, so it acts by automorphisms when
    both map row i to the row of the translated vertex.  Each translation
    of a row is one big-int rotation: (1, 0) rotates the whole row by b,
    (0, 1) rotates inside each b-block.
    """
    degree = rows[0].bit_count()
    if any(r.bit_count() != degree for r in rows):
        return None
    full = (1 << n) - 1
    # b = n would be Z_n in the labelling that b = 1 already tries
    for b in [d for d in range(1, n) if n % d == 0] or [1]:
        if any(rows[(i + b) % n] != (r << b | r >> (n - b)) & full for i, r in enumerate(rows)):
            continue
        # (0, 1) takes vertex i to i + 1, or to i + 1 - b at a block's end
        last = sum(1 << v for v in range(b - 1, n, b))
        if all(rows[i + 1 - b * (i % b == b - 1)] == ((r & ~last) << 1 | (r & last) >> (b - 1))
               for i, r in enumerate(rows)):
            return n // b, b
    return None


def is_vertex_transitive(g: Graph) -> bool:
    """Whether the automorphisms of g act transitively on its vertices.
    Cayley graphs are (Sabidussi, Proc. AMS 1958), so one that _cayley_group
    finds in its own labelling needs no automorphism search."""
    if _cayley_group(g.n, g.rows) is not None:
        return True
    # targets already in the orbit of vertex 0 under the automorphisms
    # found so far need no search of their own
    autos, orbit = [], {0}
    for v in range(1, g.n):
        if v not in orbit:
            autos.append(_iso_map(g, g, fixed=(0, v)))
            if autos[-1] is None:
                return False
            orbit = _closure(orbit, autos)
    return True
