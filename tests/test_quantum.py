"""Quantum-side checks: orthogonal representations, cyclic-scenario
realizations, the singlet box, and the hidden-variable sampler."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exgraph import acceptance, quantum
from exgraph import graph as gr
from exgraph.boxes import _MAX_TRIALS
from exgraph.quantum import (
    _HV_CHUNK,
    bell_qubit_hv_expectation,
    kcbs_orthorep,
    ncycle_quantum_realization,
    orthorep_from_json_dict,
    paulis,
    singlet_box,
    singlet_chsh,
    verify_orthorep,
)
from exgraph.scenarios import check_nondisturbance, evaluate_inequality, has_global_section
from exgraph.boxes import chsh_value, is_local, is_nosignaling
from oracles import hv_reference

ROOT5 = math.sqrt(5.0)


def _odd_value(n):
    c = math.cos(math.pi / n)
    return n * (3 * c - 1) / (1 + c)


def test_pauli_algebra():
    sx, sy, sz = paulis()
    for s in (sx, sy, sz):
        np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(sx @ sy + sy @ sx, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(sx @ sy, 1j * sz, atol=1e-12)


def test_kcbs_umbrella_reaches_root5():
    rep = kcbs_orthorep()
    assert rep.dimension == 3
    ok, witness = verify_orthorep(gr.cycle_graph(5), rep)
    assert ok
    assert witness == pytest.approx(ROOT5, abs=1e-9)
    for v in rep.vectors:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_orthorep_json_roundtrip():
    rep = kcbs_orthorep()
    again = orthorep_from_json_dict(rep.to_json_dict())
    assert again.witness_value() == pytest.approx(rep.witness_value(), abs=1e-12)
    ok, _ = verify_orthorep(gr.cycle_graph(5), again)
    assert ok


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["psi", "vector"])
def test_orthorep_refuses_non_finite_entries(bad, where):
    # a NaN passes the unit-length check, and witness_value() was then nan
    psi, vectors = [1.0, 0.0, 0.0], [[1.0, 0.0, 0.0]] * 5
    if where == "psi":
        psi = [bad, 0.0, 0.0]
    else:
        vectors = [[0.0, bad, 0.0], *vectors[1:]]
    with pytest.raises(ValueError, match="finite"):
        quantum.OrthoRep(np.array(psi), tuple(np.array(v) for v in vectors))
    with pytest.raises(ValueError, match="finite"):
        orthorep_from_json_dict({"psi": psi, "vectors": vectors, "complex": False})
    pairs = lambda vec: [[x, 0.0] for x in vec]
    with pytest.raises(ValueError, match="finite"):
        orthorep_from_json_dict({"psi": pairs(psi), "vectors": [pairs(v) for v in vectors], "complex": True})


def test_orthorep_json_reads_complex_entries_bit_for_bit():
    v = np.array([0.6 - 0.0j, -0.0 + 0.8j, 0.0])
    again = orthorep_from_json_dict(quantum.OrthoRep(v, (v, v)).to_json_dict())
    assert again.psi.tobytes() == v.tobytes()
    assert all(w.tobytes() == v.tobytes() for w in again.vectors)


def test_verify_orthorep_rejects_wrong_length():
    with pytest.raises(ValueError):
        verify_orthorep(gr.cycle_graph(4), kcbs_orthorep())


def test_verify_orthorep_flags_nonorthogonal_edges():
    rep = kcbs_orthorep()
    ok, _ = verify_orthorep(gr.complete_graph(5), rep)
    assert not ok


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_cyclic_realizations_hit_the_quantum_value(n):
    real = ncycle_quantum_realization(n)
    expect = _odd_value(n) if n % 2 else n * math.cos(math.pi / n)
    assert real.value == pytest.approx(expect, abs=1e-12)
    ineq = real.inequality()
    assert real.value > ineq.bound + 0.1
    model = real.model()
    ok, _ = check_nondisturbance(model, tol=1e-7)
    assert ok
    assert evaluate_inequality(model, ineq) == pytest.approx(real.value, abs=1e-7)


def test_realization_event_projectors_match_the_model():
    real = ncycle_quantum_realization(5)
    born = sum(float(np.trace(real.rho @ e).real) for e in real.event_projectors)
    s = evaluate_inequality(real.model(), real.inequality(), form="probability")
    assert born == pytest.approx(s, abs=1e-7)


@pytest.mark.parametrize("n", [4, 5])
def test_quantum_models_admit_no_global_section(n):
    model = ncycle_quantum_realization(n).model()
    ok, cert = has_global_section(model)
    assert not ok
    assert cert["margin"] > 1e-7


def test_realization_rejects_tiny_n():
    with pytest.raises(ValueError):
        ncycle_quantum_realization(3)


def test_singlet_box_is_quantum_not_classical():
    box = singlet_box()
    ok, _ = is_nosignaling(box)
    assert ok
    local, _ = is_local(box)
    assert not local
    assert chsh_value(box) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert singlet_chsh() == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_hv_sampler_is_seeded_and_converges():
    a_vec = (0.4, -0.2, 0.5)
    n_vec = np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)
    one = bell_qubit_hv_expectation(0.1, a_vec, n_vec, samples=5000, seed=12)
    two = bell_qubit_hv_expectation(0.1, a_vec, n_vec, samples=5000, seed=12)
    assert one == two
    exact = 0.1 + float(np.dot(a_vec, n_vec))
    norm_a = float(np.linalg.norm(a_vec))
    big = bell_qubit_hv_expectation(0.1, a_vec, n_vec, samples=200_000, seed=7)
    assert abs(big - exact) < 4 * norm_a / math.sqrt(200_000)


_coordinate = st.floats(-2.0, 2.0, allow_subnormal=False)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.floats(-1.0, 1.0), st.tuples(_coordinate, _coordinate, _coordinate),
       st.tuples(_coordinate, _coordinate, _coordinate).filter(lambda v: math.hypot(*v) > 1e-3),
       st.integers(1, 3000), st.integers(0, 2**32 - 1))
def test_hv_sampler_matches_the_normalising_loop_bit_for_bit(a0, a_vec, n_dir, samples, seed):
    # m.a + |m| (n.a) >= 0 decides the same signs as (m/|m| + n).a >= 0 on
    # the same draws, and (2k - N)/N is the mean of k plus and N - k minus
    n_vec = np.array(n_dir) / np.linalg.norm(n_dir)
    got = bell_qubit_hv_expectation(a0, a_vec, n_vec, samples=samples, seed=seed)
    assert got == hv_reference(a0, a_vec, n_vec, samples, seed)


_BOUNDARY_SAMPLES = (_HV_CHUNK - 1, _HV_CHUNK, _HV_CHUNK + 1, 3 * _HV_CHUNK + 17, 100_000)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.floats(-1.0, 1.0), st.tuples(_coordinate, _coordinate, _coordinate),
       st.tuples(_coordinate, _coordinate, _coordinate).filter(lambda v: math.hypot(*v) > 1e-3),
       st.sampled_from(_BOUNDARY_SAMPLES), st.integers(0, 2**32 - 1))
def test_hv_sampler_matches_the_reference_across_chunk_boundaries(a0, a_vec, n_dir, samples, seed):
    # the chunked stream must read the same draws, in the same order, as the
    # one-shot normal(size=(samples, 3)) of the reference
    n_vec = np.array(n_dir) / np.linalg.norm(n_dir)
    got = bell_qubit_hv_expectation(a0, a_vec, n_vec, samples=samples, seed=seed)
    assert got == hv_reference(a0, a_vec, n_vec, samples, seed)


def test_hv_sampler_pins_the_values_criterion_13_computes(monkeypatch):
    calls = []
    sample = quantum.bell_qubit_hv_expectation

    def recording(a0, a_vec, n_vec, samples, seed):
        got = sample(a0, a_vec, n_vec, samples=samples, seed=seed)
        calls.append((got, hv_reference(a0, a_vec, n_vec, samples, seed), samples, seed))
        return got

    monkeypatch.setattr(acceptance.quantum, "bell_qubit_hv_expectation", recording)
    assert acceptance.criterion_13().passed
    assert [seed for *_, seed in calls] == list(range(1000, 1020))
    for got, want, samples, _ in calls:
        assert samples == 100_000
        assert got == want


def test_hv_sampler_memory_stays_bounded_by_the_chunk():
    a_vec = (0.4, -0.2, 0.5)
    n_vec = np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)
    bell_qubit_hv_expectation(0.1, a_vec, n_vec, samples=10, seed=3)
    tracemalloc.start()
    try:
        bell_qubit_hv_expectation(0.1, a_vec, n_vec, samples=1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one-shot evaluation of 10^6 samples peaks near 46 MB
    assert peak < 2_000_000


def test_hv_sampler_exact_when_observable_aligns_with_state():
    # with a parallel to n every hidden direction gives the + outcome
    val = bell_qubit_hv_expectation(0.3, (0.0, 0.0, 0.7), (0.0, 0.0, 1.0), samples=100, seed=1)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_hv_sampler_validation():
    with pytest.raises(ValueError):
        bell_qubit_hv_expectation(0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), samples=0, seed=1)
    with pytest.raises(ValueError):
        bell_qubit_hv_expectation(0.0, (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), samples=10, seed=1)
    with pytest.raises(ValueError):
        bell_qubit_hv_expectation(0.0, (1.0, 0.0), (1.0, 0.0, 0.0), samples=10, seed=1)


@pytest.mark.parametrize(
    "a0, a_vec, n_vec, samples",
    [
        (math.nan, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 10),
        (math.inf, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 10),
        (0.0, (math.nan, 0.0, 0.0), (1.0, 0.0, 0.0), 10),
        (0.0, (1.0, -math.inf, 0.0), (1.0, 0.0, 0.0), 10),
        (0.0, (1.0, 0.0, 0.0), (math.nan, 0.0, 1.0), 10),
        (0.0, (1.0, 0.0, 0.0), (0.0, math.inf, 0.0), 10),
        (0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.5),
        (0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), "10"),
        (0.0, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), _MAX_TRIALS + 1),
    ],
    ids=["nan-a0", "inf-a0", "nan-a", "inf-a", "nan-n", "inf-n", "float-samples", "str-samples",
         "samples-over-cap"],
)
def test_hv_sampler_rejects_bad_input_before_drawing(monkeypatch, a0, a_vec, n_vec, samples):
    def no_draws(seed):
        raise AssertionError("the sampler drew before rejecting its input")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError):
        bell_qubit_hv_expectation(a0, a_vec, n_vec, samples=samples, seed=1)
