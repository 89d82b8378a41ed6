"""Definite-value (0/1) coloring machinery for ray systems.

A vector system is a set of rays in R^d (normalized, sign-canonicalized,
duplicates rejected).  Its orthogonality graph connects orthogonal rays; the
cliques of size d are complete bases.  A 0/1 coloring must give adjacent
rays at most one 1 and every complete basis exactly one 1.  The classifier
runs backtracking with unit propagation, honors pinned values, and returns
either a checked witness or the refutation trace.

The operator-product (sign) proofs live here too: a proof spec lists
plus/minus-one observables, lines of mutually commuting ones, and the
expected product sign per line; verification checks the algebra and then
decides by Gaussian elimination over GF(2) whether a consistent plus/minus-one
value assignment exists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import maximal_cliques
from .graph import MAX_VERTICES, Graph, _index, _reals, _tolerance, from_edges
from .numkernel import is_hermitian, tensor_product
from .quantum import IDENT2, SIGMA_X, SIGMA_Y, SIGMA_Z


@dataclass
class VectorSystem:
    dimension: int
    vectors: tuple[np.ndarray, ...]
    tol: float = 1e-9
    labels: tuple[str, ...] | None = None

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def to_json_dict(self) -> dict:
        out = {
            "d": self.dimension,
            "vectors": [[float(x) for x in v] for v in self.vectors],
            "tol": self.tol,
        }
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


def _unit_ray(raw, tol: float, i: int) -> np.ndarray:
    """Vector i scaled to unit length, with its first coordinate above `tol`
    made positive so that vectors on one line come out equal."""
    v = _reals(raw, f"vector {i}", (None,))
    norm = float(np.linalg.norm(v))
    if norm <= tol:
        raise ValueError(f"vector {i} is zero")
    v = v / norm
    for x in v:
        if abs(x) > tol:
            return -v if x < 0 else v
    return v


def vector_system(vectors, tol: float = 1e-9, labels=None) -> VectorSystem:
    """Normalize, canonicalize (first nonzero coordinate positive), and
    reject duplicate rays.  The orthogonality graph has one vertex per ray,
    so more than MAX_VERTICES rays are refused before the pairwise check.
    The coordinates must be finite and tol positive."""
    tol = _tolerance(tol, "tol")
    vecs = [_unit_ray(raw, tol, i) for i, raw in enumerate(vectors)]
    if not vecs:
        raise ValueError("empty vector system")
    _index(len(vecs), "ray count", hi=MAX_VERTICES)
    d = vecs[0].shape[0]
    if any(v.shape != (d,) for v in vecs):
        raise ValueError("vectors of mixed dimension")
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != len(vecs):
            raise ValueError("one label per vector required")
    for i, j in itertools.combinations(range(len(vecs)), 2):
        if float(np.max(np.abs(vecs[i] - vecs[j]))) < 1e-9:
            a, b = (labels[i], labels[j]) if labels else (i, j)
            raise ValueError(f"duplicate ray: {a} and {b} span the same line")
    return VectorSystem(d, tuple(vecs), tol, labels)


def vector_system_from_json_dict(data: dict) -> VectorSystem:
    try:
        d = _index(data["d"], "dimension")
        vs = vector_system(data["vectors"], tol=data.get("tol", 1e-9), labels=data.get("labels"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed vector system: {exc}") from exc
    if vs.dimension != d:
        raise ValueError(f"declared dimension {d} but vectors live in {vs.dimension}")
    return vs


def orthogonality_graph(vs: VectorSystem) -> Graph:
    edges = []
    for i in range(len(vs.vectors)):
        for j in range(i + 1, len(vs.vectors)):
            if abs(float(np.dot(vs.vectors[i], vs.vectors[j]))) <= vs.tol:
                edges.append((i, j))
    return from_edges(len(vs.vectors), edges, labels=vs.labels)


def full_bases(g: Graph, d: int) -> tuple[tuple[int, ...], ...]:
    """Complete bases: cliques of size d (maximal automatically, since d+1
    mutually orthogonal rays cannot exist in dimension d)."""
    return tuple(c for c in maximal_cliques(g) if len(c) == d)


@dataclass
class ColoringProblem:
    graph: Graph
    bases: tuple[tuple[int, ...], ...]
    pins: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for basis in self.bases:
            for a, b in itertools.combinations(basis, 2):
                if not self.graph.has_edge(a, b):
                    raise ValueError(f"basis {basis} is not a clique")
        self.pins = {_index(v, "pinned ray", 0, self.graph.n - 1): _index(val, "pin value", 0, 1)
                     for v, val in self.pins.items()}


def coloring_problem(vs: VectorSystem, pins: dict[int, int] | None = None) -> ColoringProblem:
    g = orthogonality_graph(vs)
    return ColoringProblem(g, full_bases(g, vs.dimension), dict(pins or {}))


@dataclass
class ColoringResult:
    status: str  # "COLORABLE" | "UNCOLORABLE"
    witness: dict[int, int] | None
    trace: list[dict]


def _propagate(g: Graph, bases, assign, queue, trace, label) -> bool:
    """Exhaust consequences of the queued assignments; False on conflict."""
    while queue:
        v, val, reason = queue.pop()
        if assign[v] != -1:
            if assign[v] != val:
                trace.append({"event": "conflict", "vertex": label(v), "value": val, "reason": reason})
                return False
            continue
        assign[v] = val
        trace.append({"event": "propagate", "vertex": label(v), "value": val, "reason": reason})
        if val == 1:
            for u in range(g.n):
                if g.has_edge(v, u):
                    queue.append((u, 0, f"adjacent to {label(v)}=1"))
        for basis in bases:
            if v not in basis:
                continue
            values = [assign[u] for u in basis]
            if values.count(1) > 1:
                trace.append({"event": "conflict", "vertex": label(v), "value": val,
                              "reason": f"two 1s in basis {tuple(label(u) for u in basis)}"})
                return False
            if values.count(0) == len(basis):
                trace.append({"event": "conflict", "vertex": label(v), "value": val,
                              "reason": f"basis {tuple(label(u) for u in basis)} all 0"})
                return False
            if values.count(1) == 0 and values.count(-1) == 1:
                forced = basis[values.index(-1)]
                queue.append((forced, 1, f"last open slot of basis {tuple(label(u) for u in basis)}"))
    return True


def classify_colorability(cp: ColoringProblem) -> ColoringResult:
    g = cp.graph
    bases = cp.bases
    label = lambda v: g.label(v)
    trace: list[dict] = []
    assign = [-1] * g.n

    queue = [(v, val, "pin") for v, val in sorted(cp.pins.items())]
    for v, val in sorted(cp.pins.items()):
        trace.append({"event": "pin", "vertex": label(v), "value": val, "reason": "pinned"})
    if not _propagate(g, bases, assign, queue, trace, label):
        return ColoringResult("UNCOLORABLE", None, trace)

    def search(assign: list[int]) -> list[int] | None:
        target = -1
        best_open = None
        for basis in bases:
            values = [assign[u] for u in basis]
            if 1 in values:
                continue
            open_slots = values.count(-1)
            if best_open is None or open_slots < best_open:
                best_open = open_slots
                target = next(u for u in basis if assign[u] == -1)
        if target == -1:
            for v in range(g.n):
                if assign[v] == -1:
                    target = v
                    break
        if target == -1:
            return assign
        for val in (1, 0):
            trial = list(assign)
            trace.append({"event": "branch", "vertex": label(target), "value": val, "reason": "try"})
            if _propagate(g, bases, trial, [(target, val, "branch")], trace, label):
                done = search(trial)
                if done is not None:
                    return done
            trace.append({"event": "backtrack", "vertex": label(target), "value": val, "reason": "dead end"})
        return None

    solution = search(assign)
    if solution is None:
        return ColoringResult("UNCOLORABLE", None, trace)
    witness = {v: int(solution[v]) for v in range(g.n)}
    ok, problems = verify_coloring(cp, witness)
    if not ok:
        raise RuntimeError(f"search produced an invalid witness: {problems}")
    return ColoringResult("COLORABLE", witness, trace)


def verify_coloring(cp: ColoringProblem, assignment: dict[int, int]) -> tuple[bool, list[str]]:
    """Re-check a witness independently of the search."""
    g = cp.graph
    problems = []
    for v in range(g.n):
        if assignment.get(v) not in (0, 1):
            problems.append(f"vertex {g.label(v)} unassigned")
    for i, j in g.edges():
        if assignment.get(i) == 1 and assignment.get(j) == 1:
            problems.append(f"adjacent 1s on {g.label(i)}, {g.label(j)}")
    for basis in cp.bases:
        ones = sum(1 for u in basis if assignment.get(u) == 1)
        if ones != 1:
            problems.append(f"basis {tuple(g.label(u) for u in basis)} carries {ones} ones")
    for v, val in cp.pins.items():
        if assignment.get(v) != val:
            problems.append(f"pin {g.label(v)}={val} not respected")
    return not problems, problems


# ---------------------------------------------------------------------------
# stock ray systems

_SQRT2 = math.sqrt(2)

_P33_SEEDS = (
    (1, 0, 0),
    (0, 1, 1),
    (0, 1, _SQRT2),
    (_SQRT2, 1, 1),
    (0, -1, 1),
    (0, -1, _SQRT2),
    (_SQRT2, -1, 1),
    (_SQRT2, -1, -1),
)


def p33_vectors() -> VectorSystem:
    """The 33-ray system in dimension three: all coordinate permutations of
    the eight seed vectors, deduplicated as rays."""
    # a ray repeats only as the same coordinate list or its exact negation,
    # so repeated rays come out equal bit for bit
    perms = [[seed[p] for p in perm] for seed in _P33_SEEDS for perm in itertools.permutations(range(3))]
    out = list(dict.fromkeys(tuple(_unit_ray(v, 1e-12, i)) for i, v in enumerate(perms)))
    vs = vector_system(out)
    if len(vs.vectors) != 33:
        raise RuntimeError(f"ray catalog has {len(vs.vectors)} rays, expected 33")
    return vs


# the 25 rays touched by the classic stepwise elimination argument (a proper
# subset of the 33; colorable on its own)
_P33_PROOF_RAYS = (
    (0, 0, 1),
    (1, 0, 0),
    (0, 1, 0),
    (1, 1, 0),
    (1, -1, 0),
    (1, 0, 1),
    (1, 0, -1),
    (0, 1, 1),
    (0, 1, -1),
    (1, -1, _SQRT2),
    (1, -1, -_SQRT2),
    (_SQRT2, 0, -1),
    (0, _SQRT2, 1),
    (1, 0, _SQRT2),
    (_SQRT2, -1, -1),
    (_SQRT2, 1, 1),
    (1, 0, -_SQRT2),
    (_SQRT2, 0, 1),
    (1, 1, -_SQRT2),
    (1, 1, _SQRT2),
    (0, _SQRT2, -1),
    (0, 1, _SQRT2),
    (1, -_SQRT2, 1),
    (1, _SQRT2, 1),
    (0, 1, -_SQRT2),
)


def p33_proof_rays() -> VectorSystem:
    vs = vector_system(_P33_PROOF_RAYS)
    if len(vs.vectors) != 25:
        raise RuntimeError(f"proof subset has {len(vs.vectors)} rays, expected 25")
    return vs


_KS8_DEFAULTS = (5 * math.pi / 6, math.pi / 6, math.atan(1 / (2 * _SQRT2)))


def ks8_vectors(alpha: float | None = None, beta: float | None = None, phi: float | None = None) -> VectorSystem:
    """The eight-ray system whose diagram forces H=0 once A=1.

    The three angles must keep the eight rays distinct and satisfy
    tan(phi)^2 = -sin(alpha) sin(beta) cos(alpha - beta) so that D and G are
    orthogonal; the defaults do.  Degenerate choices (for example
    alpha = beta) collapse rays and are rejected at ingest.
    """
    if alpha is None and beta is None and phi is None:
        alpha, beta, phi = _KS8_DEFAULTS
    if alpha is None or beta is None or phi is None:
        raise ValueError("give all three angles or none")
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    if abs(sa) < 1e-12 or abs(sb) < 1e-12 or abs(math.sin(phi)) < 1e-12 or abs(math.cos(phi)) < 1e-12:
        raise ValueError("angles make a cotangent blow up")
    cot_phi = math.cos(phi) / math.sin(phi)
    tan_phi = math.sin(phi) / math.cos(phi)
    rays = [
        (1, 0, 0),
        (0, ca, sa),
        (cot_phi, 1, -ca / sa),
        (tan_phi / sa, -sa, ca),
        (0, cb, sb),
        (cot_phi, 1, -cb / sb),
        (tan_phi / sb, -sb, cb),
        (math.sin(phi), -math.cos(phi), 0),
    ]
    return vector_system(rays, labels=("A", "B", "C", "D", "E", "F", "G", "H"))


# ---------------------------------------------------------------------------
# operator-product proofs


@dataclass
class OperatorProofSpec:
    operators: tuple[np.ndarray, ...]
    lines: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        k = len(self.operators)
        if not k:
            raise ValueError("a proof needs at least one operator")
        self.lines = tuple(tuple(_index(i, "line index", 0, k - 1) for i in line) for line in self.lines)
        self.signs = tuple(_index(s, "line sign") for s in self.signs)
        if len(self.lines) != len(self.signs):
            raise ValueError("one sign per line required")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("line signs must be +1 or -1")
        d = self.operators[0].shape[0]
        for i, op in enumerate(self.operators):
            if op.shape != (d, d):
                raise ValueError(f"operator {i} has shape {op.shape}, expected {(d, d)}")

    def to_json_dict(self) -> dict:
        return {
            "operators": [
                [[[float(z.real), float(z.imag)] for z in row] for row in op]
                for op in self.operators
            ],
            "lines": [list(line) for line in self.lines],
            "signs": list(self.signs),
        }


def proof_spec_from_json_dict(data: dict) -> OperatorProofSpec:
    try:
        # an entry is its [re, im] pair, viewed as one complex number
        ops = tuple(_reals(op, f"operator {i}", (None, None, 2)).view(complex)[..., 0]
                    for i, op in enumerate(data["operators"]))
        return OperatorProofSpec(ops, data["lines"], data["signs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed proof spec: {exc}") from exc


@dataclass
class ProofReport:
    operators_ok: bool
    lines_commute: bool
    products_match: bool
    assignment_exists: bool


def verify_multiplicative_proof(spec: OperatorProofSpec, tol: float = 1e-9) -> ProofReport:
    k = len(spec.operators)
    d = spec.operators[0].shape[0]
    eye = np.eye(d, dtype=complex)

    operators_ok = all(
        is_hermitian(op, tol) and np.max(np.abs(op @ op - eye)) <= tol
        for op in spec.operators
    )
    lines_commute = True
    for line in spec.lines:
        for a, b in itertools.combinations(line, 2):
            comm = spec.operators[a] @ spec.operators[b] - spec.operators[b] @ spec.operators[a]
            if np.max(np.abs(comm)) > tol:
                lines_commute = False
    products_match = True
    for line, sign in zip(spec.lines, spec.signs):
        prod = eye
        for i in line:
            prod = prod @ spec.operators[i]
        if np.max(np.abs(prod - sign * eye)) > tol:
            products_match = False

    # A +-1 assignment v satisfies a line when the product of v over its
    # operators is its sign: a parity equation over GF(2) in the bits
    # v_i = -1.  An operator listed twice cancels (A A = I), so each line's
    # mask is an XOR, with the wanted parity in bit k.  Elimination on the
    # leading bit solves the system; it has no solution exactly when a line
    # reduces to 0 = 1.
    pivots: dict[int, int] = {}
    assignment_exists = True
    for line, sign in zip(spec.lines, spec.signs):
        row = (sign == -1) << k
        for i in line:
            row ^= 1 << i
        while (lead := (row & ((1 << k) - 1)).bit_length() - 1) in pivots:
            row ^= pivots[lead]
        if lead >= 0:
            pivots[lead] = row
        elif row:
            assignment_exists = False
            break
    return ProofReport(operators_ok, lines_commute, products_match, assignment_exists)


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return tensor_product(tensor_product(a, b), c)


def peres_mermin_square() -> OperatorProofSpec:
    """Two-qubit three-by-three square; rows and columns multiply to +I
    except the last column (-I)."""
    ops = (
        tensor_product(SIGMA_X, IDENT2),
        tensor_product(IDENT2, SIGMA_X),
        tensor_product(SIGMA_X, SIGMA_X),
        tensor_product(IDENT2, SIGMA_Y),
        tensor_product(SIGMA_Y, IDENT2),
        tensor_product(SIGMA_Y, SIGMA_Y),
        tensor_product(SIGMA_X, SIGMA_Y),
        tensor_product(SIGMA_Y, SIGMA_X),
        tensor_product(SIGMA_Z, SIGMA_Z),
    )
    lines = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))
    signs = (1, 1, 1, 1, 1, -1)
    return OperatorProofSpec(ops, lines, signs)


def dim8_star() -> OperatorProofSpec:
    """Three-qubit ten-observable star: five lines of four, one with
    product -I, each observable on exactly two lines."""
    ops = (
        _kron3(SIGMA_Y, IDENT2, IDENT2),
        _kron3(SIGMA_X, SIGMA_X, SIGMA_X),
        _kron3(SIGMA_Y, SIGMA_Y, SIGMA_X),
        _kron3(SIGMA_Y, SIGMA_X, SIGMA_Y),
        _kron3(SIGMA_X, SIGMA_Y, SIGMA_Y),
        _kron3(IDENT2, IDENT2, SIGMA_X),
        _kron3(IDENT2, IDENT2, SIGMA_Y),
        _kron3(SIGMA_X, IDENT2, IDENT2),
        _kron3(IDENT2, SIGMA_Y, IDENT2),
        _kron3(IDENT2, SIGMA_X, IDENT2),
    )
    lines = ((0, 2, 5, 8), (0, 3, 6, 9), (1, 5, 7, 9), (4, 6, 7, 8), (1, 2, 3, 4))
    signs = (1, 1, 1, 1, -1)
    return OperatorProofSpec(ops, lines, signs)
