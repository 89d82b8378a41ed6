"""Bell boxes: no-signaling, locality LP, CHSH/GYNI functionals, and the
communication protocols built on top of noisy PR boxes."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from exgraph import boxes
from exgraph.boxes import (
    BellScenario,
    Box,
    box_from_json_dict,
    chsh_value,
    correlator,
    deterministic_box,
    gyni_value,
    ip_one_bit_protocol,
    is_local,
    is_nosignaling,
    local_orthogonality_two_pr,
    nested_ic,
    pr_box,
    product_box,
    uniform_box,
    van_dam_ic,
)
from exgraph.bounds import assignment_hull
from exgraph.numkernel import lp as lpmod
from oracles import (
    inner_product_mod2,
    ip_protocol_agreement_reference,
    ip_protocol_reference,
    local_certificate_holds,
    van_dam_reference,
)


def test_scenario_and_box_validation():
    with pytest.raises(ValueError):
        BellScenario((2, 2), (2,))
    with pytest.raises(ValueError):
        BellScenario((0, 2), (2, 2))
    scn = BellScenario((2, 2), (2, 2))
    with pytest.raises(ValueError):
        Box(scn, np.zeros((2, 2, 2)))
    bad = Box(scn, np.full((2, 2, 2, 2), 0.3))
    with pytest.raises(ValueError):
        bad.validate()


def test_pr_box_is_nosignaling_nonlocal_and_maximal():
    box = pr_box()
    box.validate()
    ok, cert = is_nosignaling(box)
    assert ok and cert is None
    local, cert = is_local(box)
    assert not local
    assert cert["margin"] > 1e-7
    assert chsh_value(box) == pytest.approx(4.0, abs=1e-12)


def test_nonlocality_certificate_replays():
    box = pr_box()
    _, cert = is_local(box)
    value = cert["constant"]
    for xk, inner in cert["coefficients"].items():
        x = tuple(int(t) for t in xk.split(","))
        for ak, y in inner.items():
            a = tuple(int(t) for t in ak.split(","))
            value += y * box.prob(x, a)
    assert value > 1e-7
    # and it is nonpositive on every deterministic strategy
    for sa, sb in itertools.product(itertools.product(range(2), repeat=2), repeat=2):
        det = deterministic_box(box.scenario, (sa, sb))
        total = cert["constant"]
        for xk, inner in cert["coefficients"].items():
            x = tuple(int(t) for t in xk.split(","))
            for ak, y in inner.items():
                a = tuple(int(t) for t in ak.split(","))
                total += y * det.prob(x, a)
        assert total <= 1e-7


@pytest.mark.parametrize("e", [0.0, 0.5, 1 / math.sqrt(2), 1.0])
def test_chsh_is_linear_in_the_mixing_weight(e):
    assert chsh_value(pr_box(2, e)) == pytest.approx(4 * e, abs=1e-12)


def test_noise_mixtures_cross_the_local_boundary():
    local, _ = is_local(pr_box(2, 0.5))
    assert local
    local, _ = is_local(pr_box(2, 1 / math.sqrt(2)))
    assert not local


@pytest.mark.parametrize("e", [0.6, 0.8, 1.0])
def test_nonlocality_certificate_is_the_chsh_inequality(e):
    box = pr_box(2, e)
    local, cert = is_local(box)
    assert not local
    assert cert["constant"] == pytest.approx(-2.0, abs=1e-12)
    assert cert["margin"] == pytest.approx(chsh_value(box) - 2.0, abs=1e-9)
    coefs = [y for inner in cert["coefficients"].values() for y in inner.values()]
    assert len(coefs) == 16
    np.testing.assert_allclose(np.abs(coefs), 1.0, atol=1e-12)


def test_locality_size_cap_is_checked_before_enumeration():
    # 4^4 * 4^4 = 65,536 strategies, past the hull column cap
    with pytest.raises(ValueError):
        is_local(uniform_box(BellScenario((4, 4), (4, 4))))
    # 2^32 strategies: enumerating them would never finish
    with pytest.raises(ValueError):
        is_local(uniform_box(BellScenario((8, 8), (4, 4))))


@pytest.mark.parametrize("settings, outcomes", [
    ((2, 2), (2, 2)), ((3, 3), (3, 3)), ((2, 3), (3, 2)), ((2, 2, 2), (2, 2, 2)), ((1, 4), (3, 1)),
])
def test_strategy_matrix_stacks_the_deterministic_boxes(settings, outcomes):
    # is_local's layout: measurement (party i, setting x) numbered party by
    # party, one context per setting tuple; the columns then come in the
    # order of the strategies listed party by party
    scn = BellScenario(settings, outcomes)
    first = np.cumsum((0,) + settings[:-1])
    sizes = tuple(o for m, o in zip(settings, outcomes) for _ in range(m))
    contexts = [tuple(first + x) for x in itertools.product(*(range(m) for m in settings))]
    strategies = itertools.product(*(itertools.product(range(o), repeat=m) for m, o in zip(settings, outcomes)))
    columns = [deterministic_box(scn, strat).table.ravel() for strat in strategies]
    assert np.array_equal(assignment_hull(sizes, contexts), np.column_stack(columns))


def test_pr_correlators():
    box = pr_box(2, 0.7)
    for x, y in itertools.product(range(2), repeat=2):
        expect = 0.7 * (-1 if x and y else 1)
        assert correlator(box, x, y) == pytest.approx(expect, abs=1e-12)


def test_signaling_box_is_caught():
    scn = BellScenario((2, 2), (2, 2))
    table = np.zeros((2, 2, 2, 2))
    for x, y in itertools.product(range(2), repeat=2):
        table[x, y, y, 0] = 1.0  # Alice outputs Bob's setting
    ok, cert = is_nosignaling(Box(scn, table))
    assert not ok
    assert cert


def test_deterministic_and_uniform_boxes_are_local():
    scn = BellScenario((2, 2), (2, 2))
    det = deterministic_box(scn, ((0, 1), (1, 0)))
    local, model = is_local(det)
    assert local
    assert sum(model["weights"].values()) == pytest.approx(1.0, abs=1e-7)
    assert abs(chsh_value(det)) <= 2 + 1e-12
    local, _ = is_local(uniform_box(scn))
    assert local


def test_product_box_composes_independent_parts():
    left = pr_box()
    right = deterministic_box(BellScenario((2,), (2,)), ((1, 0),))
    joint = product_box(left, right)
    assert joint.scenario.settings == (2, 2, 2)
    assert joint.scenario.outcomes == (2, 2, 2)
    for x, y in itertools.product(range(2), repeat=2):
        for a, b in itertools.product(range(2), repeat=2):
            assert joint.prob((x, y, 0), (a, b, 1)) == pytest.approx(left.prob((x, y), (a, b)))
            assert joint.prob((x, y, 1), (a, b, 0)) == pytest.approx(left.prob((x, y), (a, b)))
            assert joint.prob((x, y, 0), (a, b, 0)) == pytest.approx(0.0)


def test_box_json_roundtrip_with_scalar_and_per_party_fields():
    box = pr_box(3, 0.4)
    data = box.to_json_dict()
    assert data["settings"] == [3, 2]
    assert data["outcomes"] == 3
    again = box_from_json_dict(data)
    np.testing.assert_allclose(again.table, box.table, atol=1e-12)
    with pytest.raises(ValueError):
        box_from_json_dict({"parties": 2, "settings": [2, 2, 2], "outcomes": 2, "table": {}})


def test_box_json_party_count_is_capped_before_any_tuple_is_built():
    # one count for every party used to be repeated a million times first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="parties must be at most 32"):
            box_from_json_dict({"parties": 10**6, "settings": 1, "outcomes": 1, "table": {}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("level, key, bad", [
    ("settings", "1,1", "-1,-1"),
    ("settings", "1,1", "1"),
    ("settings", "1,1", "1,1,0"),
    ("settings", "1,1", "2,1"),
    ("outcome", "1,0", "-1,0"),
    ("outcome", "1,0", "1"),
    ("outcome", "1,0", "1,2"),
])
def test_box_table_keys_are_one_index_per_party_in_range(level, key, bad):
    # a negative index used to wrap to the last setting or outcome, and a
    # short key used to fill a whole slice, so both loaded a box silently
    data = pr_box().to_json_dict()
    rows = [data["table"]] if level == "settings" else data["table"].values()
    for row in rows:
        row[bad] = row.pop(key)
    with pytest.raises(ValueError, match=f"{level} key"):
        box_from_json_dict(data)


def test_gyni_local_maximum_is_one_in_sum_form():
    scn = BellScenario((2, 2, 2), (2, 2, 2))
    best = 0.0
    for strat in itertools.product(itertools.product(range(2), repeat=2), repeat=3):
        best = max(best, gyni_value(deterministic_box(scn, strat)))
    assert best == pytest.approx(1.0, abs=1e-12)
    assert gyni_value(uniform_box(scn)) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        gyni_value(pr_box())


def test_local_orthogonality_sum_hits_five_quarters():
    assert local_orthogonality_two_pr() == pytest.approx(1.25, abs=1e-12)
    noisy = local_orthogonality_two_pr(pr_box(2, 0.0))
    assert noisy == pytest.approx(5 / 16, abs=1e-12)


def test_van_dam_protocol_with_a_perfect_box():
    res = van_dam_ic(seed=11, trials=2000)
    assert res.success == 1.0
    assert res.mutual_information == pytest.approx(2.0, abs=1e-12)
    assert res.message_bits == 1 and res.trials == 2000


def test_van_dam_protocol_with_noise():
    e = 0.8
    res = van_dam_ic(seed=3, trials=4000, e=e)
    assert abs(res.success - (1 + e) / 2) < 0.03
    assert res.mutual_information < 2.0
    with pytest.raises(ValueError):
        van_dam_ic(seed=1, trials=0)
    with pytest.raises(ValueError):
        van_dam_ic(seed=1, trials=1_000_001)


@pytest.mark.parametrize("e", [1.0, 0.9, 0.7, 0.5, 0.3, 0.0])
def test_van_dam_success_is_the_per_trial_loop_bit_for_bit(e):
    table = pr_box(2, e).table
    for seed in (0, 17, 2024):
        for trials in (1, 2, 3, 7, 300, 1001):
            assert van_dam_ic(seed, trials, e).success == van_dam_reference(seed, trials, table)


def test_van_dam_chunks_keep_the_stream_aligned(monkeypatch):
    table = pr_box(2, 0.7).table
    assert van_dam_ic(5, 32_769, 0.7).success == van_dam_reference(5, 32_769, table)
    monkeypatch.setattr(boxes, "_VAN_DAM_PAIRS", 3)
    for seed in (1, 9):
        for trials in (5, 6, 7, 12, 13, 31):
            assert van_dam_ic(seed, trials, 0.7).success == van_dam_reference(seed, trials, table)


def test_nested_protocol_closed_form():
    for d in (2, 3, 5):
        for e in (0.0, 0.3, 1 / math.sqrt(2), 0.9, 1.0):
            for levels in (1, 2, 4, 6):
                res = nested_ic(d, e, levels)
                expect = ((d - 1) * e**levels + 1) / d
                assert res.success == pytest.approx(expect, abs=1e-12)
                assert res.ic_violation_condition == (2 * e * e > 1)
    assert nested_ic(2, 1.0, 6).success == 1.0
    for bad in ((1, 0.5, 2), (2, 1.5, 2), (2, 0.5, 0)):
        with pytest.raises(ValueError):
            nested_ic(*bad)


def test_ip_protocol_matches_the_arithmetic_oracle():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(1, 24))
        x = rng.integers(0, 2, size=n).tolist()
        y = rng.integers(0, 2, size=n).tolist()
        res = ip_one_bit_protocol(x, y, seed=int(rng.integers(0, 1 << 30)))
        assert res.bits_communicated == 1
        assert res.result == inner_product_mod2(x, y)


def test_ip_protocol_matches_the_per_bit_loop():
    # one integers(0, 2, size=n) draw against one draw per bit, on valid
    # inputs and on inputs that fail either check first
    rng = np.random.default_rng(1012)
    for case in range(1000):
        n = int(rng.integers(0, 40))
        x = rng.integers(0, 2, size=n).tolist()
        y = rng.integers(0, 2, size=n + (case % 50 in (7, 23))).tolist()
        if case % 50 in (11, 23) and y:
            y[-1] = 2
        seed = int(rng.integers(0, 1 << 30))
        try:
            want = ip_protocol_reference(x, y, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                ip_one_bit_protocol(x, y, seed=seed)
            continue
        assert ip_one_bit_protocol(x, y, seed=seed).result == want


@pytest.mark.parametrize("bits", [1, 16, 64])
@pytest.mark.parametrize("seed", [0, 3, 7, 99, 2024])
def test_ip_protocol_agreement_matches_the_seeded_loop(seed, bits):
    assert boxes.ip_protocol_agreement(seed, 40, bits) == ip_protocol_agreement_reference(seed, 40, bits)


def test_ip_protocol_agreement_counts_disagreements(monkeypatch):
    # every third instance answers wrong, so the share is exact
    calls = []
    real = boxes.ip_one_bit_protocol

    def faulty(x, y, seed):
        calls.append(seed)
        res = real(x, y, seed=seed)
        if len(calls) % 3 == 0:
            res.result ^= 1
        return res

    monkeypatch.setattr(boxes, "ip_one_bit_protocol", faulty)
    assert boxes.ip_protocol_agreement(5, 30, 8) == 20 / 30


def test_ip_protocol_validation():
    with pytest.raises(ValueError):
        ip_one_bit_protocol([0, 1], [1], seed=0)
    with pytest.raises(ValueError):
        ip_one_bit_protocol([0, 2], [1, 0], seed=0)
    # 0.5 used to be truncated to the bit 0
    with pytest.raises(ValueError, match="must be an integer"):
        ip_one_bit_protocol([0.5], [1], 0)


@pytest.mark.parametrize(
    "sampler, args, message",
    [
        (boxes.ip_protocol_agreement, (1, 0, 4), "trials must be at least 1"),
        (boxes.ip_protocol_agreement, (1, -3, 4), "trials must be at least 1"),
        (boxes.ip_protocol_agreement, (1, 4, 0), "bits per instance must be at least 1"),
        (boxes.ip_protocol_agreement, (1, 4, -2), "bits per instance must be at least 1"),
        (boxes.ip_protocol_agreement, (1, 2.5, 4), "trials must be an integer"),
        (boxes.ip_protocol_agreement, (1, 4, 2.5), "bits per instance must be an integer"),
        (boxes.ip_protocol_agreement, (1, 4, 4097), "bits per instance must be at most 4096"),
        (van_dam_ic, (1, 2.5), "trials must be an integer"),
        (nested_ic, (2, 0.5, 2.5), "levels must be an integer"),
        (nested_ic, (2, 0.5, 0), "levels must be at least 1"),
        (nested_ic, (2.5, 0.5, 2), "d must be an integer"),
    ],
    ids=["ip-no-instances", "ip-negative-instances", "ip-no-bits", "ip-negative-bits", "ip-float-instances",
         "ip-float-bits", "ip-bits-over-cap", "vandam-float-trials", "nested-float-levels", "nested-no-levels",
         "nested-float-d"],
)
def test_samplers_reject_bad_counts_before_drawing(monkeypatch, sampler, args, message):
    def no_draws(seed):
        raise AssertionError("the sampler drew before rejecting its counts")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=message):
        sampler(*args)


@pytest.mark.parametrize("d", [1e-6, 1e-7, 1e-8, 3e-9, 1e-9, 1e-10, 1e-11])
def test_a_box_just_past_chsh_gets_a_verdict(d):
    # CHSH = 4(0.5 + d) against the local bound 2: the weights of a box this
    # close may fail their replay, and the Farkas LP then decides
    box = pr_box(2, 0.5 + d)
    verdict = is_local(box)
    assert verdict[0] == (d < 1e-9)
    assert local_certificate_holds(box, verdict, atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_a_mixture_of_five_strategies_takes_few_pivots(monkeypatch, seed):
    # zeros of the (3,3)/(3,3) table leave few of the 729 strategies; the
    # full hull LP took 257 pivots on one such box
    rng = np.random.default_rng(seed)
    scn = BellScenario((3, 3), (3, 3))
    strategies = list(itertools.product(itertools.product(range(3), repeat=3), repeat=2))
    picks = rng.choice(len(strategies), size=5, replace=False)
    table = sum(w * deterministic_box(scn, strategies[i]).table for w, i in zip(rng.dirichlet(np.ones(5)), picks))
    box = Box(scn, table)
    pivot, pivots = lpmod._pivot, []

    def counting(*args):
        pivots.append(1)
        return pivot(*args)

    monkeypatch.setattr(lpmod, "_pivot", counting)
    verdict = is_local(box)
    assert verdict[0] and local_certificate_holds(box, verdict, atol=1e-7 * 5)
    assert len(pivots) <= 11


_PR = pr_box(2, 0.5)


@pytest.mark.parametrize("call", [
    lambda tol: _PR.validate(tol=tol),
    lambda tol: is_nosignaling(_PR, tol=tol),
    lambda tol: is_local(_PR, tol=tol),
], ids=["validate", "nosignaling", "local"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_a_box_tolerance_is_checked_before_any_solve(monkeypatch, call, tol):
    def never(*args, **kwargs):
        raise AssertionError("solved with an invalid tolerance")

    monkeypatch.setattr(boxes, "hull_membership", never)
    with pytest.raises(ValueError, match="^tol must be "):
        call(tol)
