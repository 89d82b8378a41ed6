"""Explicit quantum realizations: orthonormal representations with a handle
vector, the cyclic-scenario states and observables, the singlet CHSH box,
and the single-qubit hidden-variable sampler.

Everything is complex internally even when the printed vectors are real, so
there is a single code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import _MAX_TRIALS, BellScenario, Box, chsh_value
from .graph import Graph, _index, _reals, _tolerance
from .numkernel import is_hermitian, is_projector, tensor_product
from .scenarios import EmpiricalModel, Inequality, ncycle_inequality, ncycle_scenario

IDENT2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# bell_qubit_hv_expectation draws and evaluates this many samples at a time
_HV_CHUNK = 8192


def paulis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return SIGMA_X.copy(), SIGMA_Y.copy(), SIGMA_Z.copy()


@dataclass
class OrthoRep:
    """Unit handle psi plus one unit vector per graph vertex."""

    psi: np.ndarray
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        self.vectors = tuple(np.asarray(v, dtype=complex) for v in self.vectors)
        # a NaN passes the unit-length comparisons below
        if not all(np.isfinite(v).all() for v in (self.psi, *self.vectors)):
            raise ValueError("handle and vectors must be finite")
        d = self.psi.shape[0]
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-9:
            raise ValueError("handle vector must be unit length")
        for i, v in enumerate(self.vectors):
            if v.shape != (d,):
                raise ValueError(f"vector {i} has dimension {v.shape}, handle has {d}")
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError(f"vector {i} must be unit length")

    @property
    def dimension(self) -> int:
        return self.psi.shape[0]

    def witness_value(self) -> float:
        return float(sum(abs(np.vdot(self.psi, v)) ** 2 for v in self.vectors))

    def to_json_dict(self) -> dict:
        is_complex = bool(
            np.max(np.abs(self.psi.imag)) > 0
            or any(np.max(np.abs(v.imag)) > 0 for v in self.vectors)
        )

        def enc(vec: np.ndarray):
            if is_complex:
                return [[float(z.real), float(z.imag)] for z in vec]
            return [float(z.real) for z in vec]

        return {
            "psi": enc(self.psi),
            "vectors": [enc(v) for v in self.vectors],
            "complex": is_complex,
        }


def orthorep_from_json_dict(data: dict) -> OrthoRep:
    try:
        # a complex entry is its [re, im] pair, viewed as one complex number
        if data.get("complex"):
            dec = lambda vec: _reals(vec, "vector", (None, 2)).view(complex)[:, 0]
        else:
            dec = lambda vec: _reals(vec, "vector", (None,)).astype(complex)
        return OrthoRep(dec(data["psi"]), tuple(dec(v) for v in data["vectors"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed orthonormal representation: {exc}") from exc


def verify_orthorep(g: Graph, rep: OrthoRep, tol: float = 1e-9) -> tuple[bool, float]:
    """Check that adjacent vertices carry orthogonal vectors; the returned
    value sum |<psi|v_i>|^2 lower-bounds theta(g) when the check passes."""
    tol = _tolerance(tol, "tol")
    if len(rep.vectors) != g.n:
        raise ValueError(f"{len(rep.vectors)} vectors for {g.n} vertices")
    ok = all(
        abs(np.vdot(rep.vectors[i], rep.vectors[j])) <= tol for i, j in g.edges()
    )
    return ok, rep.witness_value()


def _umbrella(n: int) -> list[np.ndarray]:
    """The odd n-cycle umbrella around the apex (1, 0, 0): unit vectors
    tilted by the angle with cos^2 theta = cos(pi/n)/(1 + cos(pi/n)), at
    successive azimuths (n-1)*pi/n apart so adjacent vectors are orthogonal."""
    c = math.cos(math.pi / n)
    cos_t = math.sqrt(c / (1 + c))
    sin_t = math.sqrt(1 - c / (1 + c))
    vectors = []
    for i in range(n):
        az = (n - 1) * math.pi * i / n
        vectors.append(np.array([cos_t, sin_t * math.cos(az), sin_t * math.sin(az)], dtype=complex))
    return vectors


def kcbs_orthorep() -> OrthoRep:
    """The five-cycle umbrella with its apex as the handle."""
    return OrthoRep(np.array([1.0, 0.0, 0.0]), tuple(_umbrella(5)))


# ---------------------------------------------------------------------------
# cyclic-scenario realizations


@dataclass
class QuantumRealization:
    """State plus commuting-pair observables for one cyclic scenario, with
    the projectors of the favored events of the targeted inequality."""

    rho: np.ndarray
    measurements: tuple[np.ndarray, ...]
    gamma: tuple[int, ...]
    value: float
    event_projectors: tuple[np.ndarray, ...]

    def validate(self, tol: float = 1e-9) -> None:
        tol = _tolerance(tol, "tol")
        evals = np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2)
        if evals[0] < -tol:
            raise ValueError(f"state not positive semidefinite ({evals[0]})")
        if self.rho.trace().real > 1 + tol:
            raise ValueError("state trace exceeds 1")
        for i, m in enumerate(self.measurements):
            if not is_hermitian(m, tol):
                raise ValueError(f"measurement {i} not Hermitian")
        for i, p in enumerate(self.event_projectors):
            if not is_projector(p, max(tol, 1e-8)):
                raise ValueError(f"event projector {i} not a projector")

    def inequality(self) -> Inequality:
        return ncycle_inequality(len(self.measurements), self.gamma)

    def model(self) -> EmpiricalModel:
        """Born-rule tables over the cyclic contexts."""
        n = len(self.measurements)
        scn = ncycle_scenario(n)
        eye = np.eye(self.rho.shape[0], dtype=complex)
        proj = {
            (i, 1): (eye + self.measurements[i]) / 2 for i in range(n)
        } | {
            (i, -1): (eye - self.measurements[i]) / 2 for i in range(n)
        }
        tables = {}
        for i, ctx in enumerate(scn.contexts):
            j = (i + 1) % n
            table = {}
            for a in (1, -1):
                for b in (1, -1):
                    val = np.trace(self.rho @ proj[(i, a)] @ proj[(j, b)]).real
                    table[(a, b)] = float(max(val, 0.0))
            tables[ctx] = table
        model = EmpiricalModel(scn, tables)
        model.validate(tol=1e-7)
        return model


def _odd_cycle_realization(n: int) -> QuantumRealization:
    c = math.cos(math.pi / n)
    eye = np.eye(3, dtype=complex)
    projectors = [np.outer(v, v.conj()) for v in _umbrella(n)]
    measurements = tuple(2 * p - eye for p in projectors)
    psi = np.zeros(3, dtype=complex)
    psi[0] = 1.0
    rho = np.outer(psi, psi.conj())
    gamma = (-1,) * n
    value = float(n * (3 * c - 1) / (1 + c))
    events = []
    for i in range(n):
        nxt = (i + 1) % n
        events.append(projectors[i] @ (eye - projectors[nxt]))
        events.append((eye - projectors[i]) @ projectors[nxt])
    return QuantumRealization(rho, measurements, gamma, value, tuple(events))


def _even_cycle_realization(n: int) -> QuantumRealization:
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    measurements = []
    for i in range(n):
        theta = (i + 1) * math.pi / n
        obs = math.sin(theta) * SIGMA_X + math.cos(theta) * SIGMA_Z
        if i % 2 == 0:
            measurements.append(tensor_product(obs, IDENT2))
        else:
            measurements.append(tensor_product(IDENT2, obs))
    gamma = (-1,) * (n - 1) + (1,)
    value = float(n * math.cos(math.pi / n))
    eye = np.eye(4, dtype=complex)
    events = []
    for i, g in enumerate(gamma):
        j = (i + 1) % n
        pi_plus = (eye + measurements[i]) / 2
        pj_plus = (eye + measurements[j]) / 2
        pi_minus = eye - pi_plus
        pj_minus = eye - pj_plus
        if g == 1:
            events.append(pi_plus @ pj_plus)
            events.append(pi_minus @ pj_minus)
        else:
            events.append(pi_plus @ pj_minus)
            events.append(pi_minus @ pj_plus)
    return QuantumRealization(rho, tuple(measurements), gamma, value, tuple(events))


def ncycle_quantum_realization(n: int) -> QuantumRealization:
    """State and observables achieving the maximal quantum value of the
    cyclic correlation inequality: the umbrella construction in dimension 3
    for odd n, two qubits in the singlet state for even n, from n = 4 on."""
    n = _index(n, "cycle length", lo=4)
    real = _odd_cycle_realization(n) if n % 2 else _even_cycle_realization(n)
    real.validate()
    return real


# ---------------------------------------------------------------------------
# singlet CHSH


def singlet_box() -> Box:
    """The CHSH box of the singlet: Alice measures (sigma_x, sigma_z), Bob
    the two diagonal directions -(sigma_x + sigma_z)/sqrt2 and
    (-sigma_x + sigma_z)/sqrt2, ordered so the standard CHSH functional
    E00 + E01 + E10 - E11 is maximized."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())
    alice = (SIGMA_X, SIGMA_Z)
    root2 = math.sqrt(2)
    bob = ((-SIGMA_X - SIGMA_Z) / root2, (-SIGMA_X + SIGMA_Z) / root2)
    eye4 = np.eye(4, dtype=complex)
    table = np.zeros((2, 2, 2, 2))
    for x, a_obs in enumerate(alice):
        for y, b_obs in enumerate(bob):
            pa = {0: (IDENT2 + a_obs) / 2, 1: (IDENT2 - a_obs) / 2}
            pb = {0: (IDENT2 + b_obs) / 2, 1: (IDENT2 - b_obs) / 2}
            for a in range(2):
                for b in range(2):
                    p = np.trace(rho @ tensor_product(pa[a], pb[b])).real
                    table[x, y, a, b] = float(max(p, 0.0))
    box = Box(BellScenario((2, 2), (2, 2)), table)
    box.validate(tol=1e-9)
    return box


def singlet_chsh() -> float:
    return chsh_value(singlet_box())


# ---------------------------------------------------------------------------
# the qubit hidden-variable model


def bell_qubit_hv_expectation(a0: float, a_vec, n_vec, samples: int, seed: int) -> float:
    """Monte-Carlo expectation of a0 + a.sigma on the pure state with Bloch
    vector n under the deterministic hidden-variable rule: the outcome is
    a0 + |a| when (m + n).a >= 0 and a0 - |a| otherwise, with m uniform on
    the sphere.  Converges to a0 + a.n.

    The draws m are read from default_rng(seed) as standard normals, three
    per sample, and evaluated _HV_CHUNK samples at a time through buffers
    allocated once per call, so memory stays O(_HV_CHUNK) for any sample
    count.  The stream is read in the same order as one normal(size=(samples,
    3)) draw and every sample's sign is computed by the same operations, so
    the result equals the one-shot evaluation bit for bit.  Every input is
    checked before the first draw: samples must be an integer in
    1.._MAX_TRIALS, and a0, a and n must be finite.
    """
    samples = _index(samples, "samples", 1, _MAX_TRIALS)
    a0 = _reals(a0, "a0")
    a_vec = _reals(a_vec, "a", (3,))
    n_vec = _reals(n_vec, "n", (3,))
    if abs(np.linalg.norm(n_vec) - 1.0) > 1e-9:
        raise ValueError("state direction must be a unit vector")
    norm_a = float(np.linalg.norm(a_vec))
    na = float(n_vec @ a_vec)
    rng = np.random.default_rng(seed)
    chunk = min(samples, _HV_CHUNK)
    m_buf = np.empty((chunk, 3))
    ma_buf = np.empty(chunk)
    r_buf = np.empty(chunk)
    plus = 0
    for start in range(0, samples, chunk):
        c = min(chunk, samples - start)
        m, ma, r = m_buf[:c], ma_buf[:c], r_buf[:c]
        rng.standard_normal(out=m)
        # (m/|m| + n).a >= 0 exactly when m.a + |m| (n.a) >= 0, since |m| > 0
        np.matmul(m, a_vec, out=ma)
        np.einsum("ij,ij->i", m, m, out=r)
        np.sqrt(r, out=r)
        r *= na
        r += ma
        plus += np.count_nonzero(r >= 0.0)
    return float(a0 + norm_a * ((2 * plus - samples) / samples))
