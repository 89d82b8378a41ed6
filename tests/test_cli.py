"""End-to-end command-line checks, run in process through cli.run."""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exgraph import bounds, cli
from exgraph.boxes import BellScenario, pr_box, uniform_box
from exgraph.kscolor import ks8_vectors, peres_mermin_square
from exgraph.scenarios import EmpiricalModel, ncycle_scenario, pentagon_extremal_model, triangle_overlap_model
from test_kscolor import two_peres_mermin_squares

ROOT5 = math.sqrt(5.0)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bounds_cycle(capsys):
    code, data = run_json(capsys, ["bounds", "--family", "cycle", "--n", "5"])
    assert code == 0
    assert data["alpha"] == 2
    assert data["theta"] == pytest.approx(ROOT5, abs=1e-6)
    assert data["alpha_star"] == pytest.approx(2.5, abs=1e-9)
    assert data["witness_independent_set"] and len(data["witness_independent_set"]) == 2


def test_cayley_inputs_print_the_character_lp_value(capsys):
    # theta of a circulant is an LP optimum, exact up to roundoff, not the
    # midpoint of a 5e-7 SDP interval
    code, data = run_json(capsys, ["bounds", "--family", "cycle", "--n", "5"])
    assert code == 0 and abs(data["theta"] - ROOT5) < 1e-12
    code, data = run_json(capsys, ["duality", "--family", "circulant", "--n", "17", "--offsets", "1,2,4,8"])
    assert code == 0 and data["product"] == 17.0


def test_cocktail_party_bounds_at_the_size_cap(tmp_path, capsys):
    # K64 minus a perfect matching has 2^32 maximal cliques: alpha* comes
    # from the translates of one maximum clique and theta is pinned by
    # alpha = alpha* = 2, but QSTAB still lists the cliques and stops
    offsets = ",".join(map(str, range(1, 32)))
    graph = ["--family", "circulant", "--n", "64", "--offsets", offsets]
    code, data = run_json(capsys, ["bounds", *graph])
    assert code == 0
    assert (data["alpha"], data["theta"], data["alpha_star"]) == (2, 2.0, 2.0)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"p": [0.5] * 64}))
    assert cli.run(["membership", *graph, "--input", str(path)]) == 2
    assert "maximal cliques" in capsys.readouterr().err


def test_bounds_from_json_file(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    code, data = run_json(capsys, ["bounds", "--input", str(path)])
    assert code == 0
    assert data["alpha"] == 2 and data["alpha_star"] == pytest.approx(2.0)


@pytest.mark.parametrize("graph", [
    {"n": 3, "edges": [[0, 1.7]]},
    {"n": 3.9, "edges": [[0, 1], [1, 2]]},
], ids=["float-edge", "float-n"])
def test_bounds_rejects_non_integer_vertex_indices(tmp_path, capsys, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert cli.run(["bounds", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = cli.run(["bounds", "--family", "complete", "--n", "4", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data["alpha"] == 1 and data["theta"] == pytest.approx(1.0, abs=1e-5)


def test_membership_at_the_quantum_boundary(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"p": [1 / ROOT5] * 5}))
    code, data = run_json(
        capsys, ["membership", "--family", "cycle", "--n", "5", "--input", str(path)]
    )
    assert code == 0
    assert data["th"] is True and data["qstab"] is True
    assert data["stab"] is False
    assert "stab_separation" in data
    assert data["theta_complement"] == pytest.approx(1.0, abs=1e-5)


def _stdout(tmp_path, capsys, argv, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert cli.run(argv + ["--input", str(path)]) == 0
    return capsys.readouterr().out


def test_membership_prints_the_odd_cycle_separation(tmp_path, capsys):
    # C5 at 0.45 is past the odd-cycle inequality sum(p) <= 2 but inside QSTAB
    out = _stdout(tmp_path, capsys, ["membership", "--family", "cycle", "--n", "5"], {"p": [0.45] * 5})
    assert out == (
        '{\n  "qstab": true,\n  "stab": false,\n  "stab_separation": {\n    "a": [\n'
        + "      1.0,\n" * 4 + '      1.0\n    ],\n    "beta": 2.0\n  },\n  "th": false,\n'
        '  "theta_complement": 1.00623058437\n}\n'
    )


def test_membership_prints_the_clique_that_qstab_fails(tmp_path, capsys):
    # C5 at 0.6: every edge is a clique of weight 1.2, and theta(complement)
    # = sqrt(5) * 0.6 is past 1
    out = _stdout(tmp_path, capsys, ["membership", "--family", "cycle", "--n", "5"], {"p": [0.6] * 5})
    assert out == (
        '{\n  "qstab": false,\n  "qstab_failure": {\n    "clique": [\n      0,\n      1\n    ],\n'
        '    "kind": "clique",\n    "total": 1.2\n  },\n  "stab": false,\n  "stab_separation": {\n    "a": [\n'
        + "      1.0,\n" * 4 + '      1.0\n    ],\n    "beta": 2.0\n  },\n  "th": false,\n'
        '  "theta_complement": 1.34164076702\n}\n'
    )


def test_box_check_prints_where_a_box_signals(tmp_path, capsys):
    # Alice's outcome is Bob's setting, so her marginal moves with party 1's
    # setting
    table = {f"{x},{y}": {f"{a},{b}": 0.5 * (a == y) for a in range(2) for b in range(2)}
             for x in range(2) for y in range(2)}
    out = _stdout(tmp_path, capsys, ["box", "check"], {"parties": 2, "settings": 2, "outcomes": 2, "table": table})
    assert out == (
        '{\n  "local": false,\n  "nosignaling": false,\n  "signaling_detail": {\n    "max_difference": 1.0,\n'
        '    "party": 1,\n    "settings_compared": [\n      0,\n      1\n    ]\n  }\n}\n'
    )


def test_box_gyni_of_the_uniform_three_party_box(tmp_path, capsys):
    document = uniform_box(BellScenario((2, 2, 2), (2, 2, 2))).to_json_dict()
    assert _stdout(tmp_path, capsys, ["box", "gyni"], document) == '{\n  "value": 0.5\n}\n'


def test_global_section_prints_the_lp_weights_of_a_model_with_zeros(tmp_path, capsys):
    # a mixture of four global assignments around a 4-cycle; three tables
    # have a zero entry, and the LP returns another of its decompositions
    model = {
        "measurements": ["M0", "M1", "M2", "M3"], "outcomes": [1, -1],
        "contexts": [["M0", "M1"], ["M1", "M2"], ["M2", "M3"], ["M3", "M0"]],
        "tables": {
            "M0,M1": {"-1,-1": 0.15, "-1,1": 0.25, "1,-1": 0.5, "1,1": 0.1},
            "M1,M2": {"-1,-1": 0.65, "1,-1": 0.25, "1,1": 0.1},
            "M2,M3": {"-1,-1": 0.65, "-1,1": 0.25, "1,1": 0.1},
            "M3,M0": {"-1,-1": 0.15, "-1,1": 0.5, "1,-1": 0.25, "1,1": 0.1},
        },
    }
    out = _stdout(tmp_path, capsys, ["scenario", "global-section"], model)
    assert out == (
        '{\n  "distribution": {\n'
        '    "M0=-1 M1=-1 M2=-1 M3=1": 0.15,\n'
        '    "M0=-1 M1=1 M2=-1 M3=-1": 0.15,\n'
        '    "M0=-1 M1=1 M2=1 M3=1": 0.1,\n'
        '    "M0=1 M1=-1 M2=-1 M3=-1": 0.4,\n'
        '    "M0=1 M1=-1 M2=-1 M3=1": 0.1,\n'
        '    "M0=1 M1=1 M2=-1 M3=-1": 0.1\n'
        '  },\n  "exists": true\n}\n'
    )


def test_membership_requires_p(tmp_path, capsys):
    path = tmp_path / "nop.json"
    path.write_text(json.dumps({"graph": {"n": 3, "edges": []}}))
    assert cli.run(["membership", "--input", str(path)]) == 2
    assert '"p"' in capsys.readouterr().err


def test_membership_without_input_is_an_input_error(capsys):
    # it used to end in a TypeError traceback and exit 1
    assert cli.run(["membership", "--family", "cycle", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and '"p"' in captured.err


def test_membership_rejects_non_numeric_p(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"graph": {"n": 5, "edges": [[0, 1]]}, "p": [0.1, 0.1, 0.1, 0.1, {"a": 1}]}))
    assert cli.run(["membership", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_membership_rejects_an_infinite_coordinate(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"graph": {"n": 5, "edges": [[0, 1]]}, "p": [math.inf, 0.1, 0.1, 0.1, 0.1]}))
    assert cli.run(["membership", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coordinates must be finite" in captured.err


def test_box_check_rejects_a_non_object_table(tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"parties": 2, "settings": 2, "outcomes": 2, "table": "x"}))
    assert cli.run(["box", "check", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_box_check_rejects_a_negative_table_key(tmp_path, capsys):
    data = pr_box().to_json_dict()
    data["table"]["-1,-1"] = data["table"].pop("1,1")
    path = tmp_path / "box.json"
    path.write_text(json.dumps(data))
    assert cli.run(["box", "check", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, value", [("parties", 2.7), ("settings", [2.5, 2]), ("outcomes", [2, 2.0])])
def test_box_check_refuses_non_integer_counts(tmp_path, capsys, field, value):
    data = pr_box(2, 0.8).to_json_dict()
    data[field] = value
    path = tmp_path / "box.json"
    path.write_text(json.dumps(data))
    assert cli.run(["box", "check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "malformed box" in captured.err and "integer" in captured.err


def test_scenario_check_refuses_a_non_integer_outcome(tmp_path, capsys):
    data = triangle_overlap_model().to_json_dict()
    data["outcomes"][0] = 1.5
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert cli.run(["scenario", "check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "malformed model" in captured.err and "integer" in captured.err


def test_ks_check_refuses_a_non_integer_pin(tmp_path, capsys):
    payload = ks8_vectors().to_json_dict()
    payload["pins"] = {"0": 1.9, "7": 1}
    path = tmp_path / "ks8.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["ks", "check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "integer" in captured.err


def _added(document, path, key, value):
    """document with document[path[0]][path[1]]...[key] = value."""
    inner = document
    for step in path:
        inner = inner[step]
    inner[key] = value
    return document


_SQUARE = peres_mermin_square().to_json_dict()
_STRING_MODEL = {"measurements": "ABC", "outcomes": [0, 1], "contexts": ["AB", "BC", "CA"],
                 "tables": {ctx: {"0,0": 0.5, "1,1": 0.5} for ctx in ("A,B", "B,C", "C,A")}}
_REFUSED_DOCUMENTS = {
    # each used to run to exit 0 on a truncated value, or to crash
    "ks check d": (["ks", "check"], dict(ks8_vectors().to_json_dict(), d=3.7), "must be an integer"),
    "ks multiplicative sign": (["ks", "multiplicative"],
                               dict(_SQUARE, signs=[1.5, *_SQUARE["signs"][1:]]), "must be an integer"),
    "ks multiplicative line": (["ks", "multiplicative"],
                               dict(_SQUARE, lines=[[1.0, *_SQUARE["lines"][0][1:]], *_SQUARE["lines"][1:]]),
                               "must be an integer"),
    "ks multiplicative no operators": (["ks", "multiplicative"], {"operators": [], "lines": [], "signs": []},
                                       "at least one operator"),
    "scenario evaluate gamma": (["scenario", "evaluate"],
                                {"model": pentagon_extremal_model().to_json_dict(), "gamma": [1.9, 1, 1, 1, -1]},
                                "must be an integer"),
    # "01" and "1" name one index: the second spelling used to merge into the
    # first (CHSH 4.0 from a row of mass 1.5, a nondisturbing verdict)
    "box outcome spelling": (["box", "chsh"], _added(pr_box().to_json_dict(), ("table", "0,0"), "01,1", 0.5),
                             "outcome key '01,1' is not spelled '1,1'"),
    "box settings spelling": (["box", "check"],
                              _added(pr_box().to_json_dict(), ("table",), "00,0", {"0,0": 0.5, "1,1": 0.5}),
                              "settings key '00,0' is not spelled '0,0'"),
    "scenario outcome spelling": (["scenario", "check"],
                                  _added(triangle_overlap_model().to_json_dict(), ("tables", "M1,M2"), "01,1", 0.5),
                                  "M1,M2 outcome key '01,1' is not spelled '1,1'"),
    # a string used to be read as the list of its characters
    "scenario measurements string": (["scenario", "global-section"], _STRING_MODEL, "must be arrays"),
    "scenario context string": (["scenario", "global-section"], dict(_STRING_MODEL, measurements=["A", "B", "C"]),
                                "must be arrays"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_DOCUMENTS))
def test_bad_json_values_exit_2_with_nothing_printed(tmp_path, capsys, case):
    argv, document, message = _REFUSED_DOCUMENTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert cli.run(argv + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "edges": [[0, 1],]}')
    assert cli.run(["bounds", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_family_is_an_input_error(capsys):
    assert cli.run(["bounds", "--family", "icosahedron", "--n", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_numerical_breakdown_is_a_computation_failure(monkeypatch, capsys):
    # LinAlgError subclasses ValueError but is not an input error
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(bounds, "lovasz_theta", broken)
    assert cli.run(["bounds", "--family", "cycle", "--n", "5"]) == 1
    assert "computation failed" in capsys.readouterr().err


def test_duality_pentagon(capsys):
    code, data = run_json(capsys, ["duality", "--family", "cycle", "--n", "5"])
    assert code == 0
    assert data["self_complementary"] is True
    assert data["product"] == pytest.approx(5.0, abs=1e-4)
    assert data["e_principle_max"] == pytest.approx(ROOT5, abs=1e-5)


def test_ks_check_pinned_ks8(tmp_path, capsys):
    payload = ks8_vectors().to_json_dict()
    payload["pins"] = {"0": 1, "7": 1}
    path = tmp_path / "ks8.json"
    path.write_text(json.dumps(payload))
    code, data = run_json(capsys, ["ks", "check", "--input", str(path)])
    assert code == 0
    assert data["status"] == "UNCOLORABLE"
    assert data["rays"] == 8
    assert data["witness"] is None
    assert any(e["event"] == "conflict" for e in data["trace"])


def test_ks_check_unpinned_ks8_finds_a_witness(tmp_path, capsys):
    path = tmp_path / "ks8free.json"
    path.write_text(json.dumps(ks8_vectors().to_json_dict()))
    code, data = run_json(capsys, ["ks", "check", "--input", str(path)])
    assert code == 0
    assert data["status"] == "COLORABLE"
    assert set(data["witness"].values()) <= {0, 1}


@pytest.mark.parametrize("builtin", ["square", "star"])
def test_ks_multiplicative_builtins(capsys, builtin):
    code, data = run_json(capsys, ["ks", "multiplicative", "--builtin", builtin])
    assert code == 0
    assert data["operators_ok"] and data["lines_commute"] and data["products_match"]
    assert data["assignment_exists"] is False


def test_ks_multiplicative_takes_more_than_twelve_operators(tmp_path, capsys):
    path = tmp_path / "squares.json"
    path.write_text(json.dumps(two_peres_mermin_squares().to_json_dict()))
    code, data = run_json(capsys, ["ks", "multiplicative", "--input", str(path)])
    assert code == 0
    assert data["operators_ok"] and data["lines_commute"] and data["products_match"]
    assert data["assignment_exists"] is False


def test_scenario_check_and_global_section(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(triangle_overlap_model().to_json_dict()))
    code, data = run_json(capsys, ["scenario", "check", "--input", str(path)])
    assert code == 0
    assert data["nondisturbing"] is True

    code, data = run_json(capsys, ["scenario", "global-section", "--input", str(path)])
    assert code == 0
    assert data["exists"] is False
    assert data["separating_functional"]["margin"] > 1e-7


def test_hull_size_cap_exits_2(tmp_path, capsys):
    box = uniform_box(BellScenario((4, 4), (4, 4)))
    box_path = tmp_path / "box.json"
    box_path.write_text(json.dumps(box.to_json_dict()))
    assert cli.run(["box", "check", "--input", str(box_path)]) == 2
    scn = ncycle_scenario(14)
    uniform = {o: 0.25 for o in itertools.product((1, -1), repeat=2)}
    model = EmpiricalModel(scn, {ctx: dict(uniform) for ctx in scn.contexts})
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_json_dict()))
    assert cli.run(["scenario", "global-section", "--input", str(model_path)]) == 2
    capsys.readouterr()


def test_scenario_evaluate_pentagon(tmp_path, capsys):
    payload = {
        "model": pentagon_extremal_model().to_json_dict(),
        "gamma": [1, 1, 1, 1, -1],
    }
    path = tmp_path / "kcbs.json"
    path.write_text(json.dumps(payload))
    code, data = run_json(capsys, ["scenario", "evaluate", "--input", str(path)])
    assert code == 0
    assert data["value"] == pytest.approx(5.0, abs=1e-9)
    assert data["classical_bound"] == 3
    assert data["violated"] is True


def test_box_check_and_chsh(tmp_path, capsys):
    path = tmp_path / "pr.json"
    path.write_text(json.dumps(pr_box().to_json_dict()))
    code, data = run_json(capsys, ["box", "check", "--input", str(path)])
    assert code == 0
    assert data["nosignaling"] is True and data["local"] is False

    code, data = run_json(capsys, ["box", "chsh", "--input", str(path)])
    assert code == 0
    assert data["value"] == pytest.approx(4.0)


def test_box_lo_defaults_to_the_perfect_box(capsys):
    code, data = run_json(capsys, ["box", "lo"])
    assert code == 0
    assert data["value"] == pytest.approx(1.25, abs=1e-12)


def test_box_nested_from_input(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"d": 3, "e": 0.5, "levels": 4}))
    code, data = run_json(capsys, ["box", "ic-nested", "--input", str(path)])
    assert code == 0
    assert data["success"] == pytest.approx(data["closed_form"], abs=1e-12)
    assert data["success"] == pytest.approx((2 * 0.5**4 + 1) / 3, abs=1e-12)
    assert data["ic_violation_condition"] is False


@pytest.mark.parametrize("document", [[1, 2], {"d": [2]}, {"e": {"x": 1}}, {"levels": None}])
def test_box_nested_rejects_a_non_object_or_non_scalar_input(tmp_path, capsys, document):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(document))
    assert cli.run(["box", "ic-nested", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("document", [{"d": 2.5, "levels": 2.5}, {"d": 2.5}, {"levels": 2.5}, {"d": "3"}])
def test_box_nested_rejects_non_integer_d_and_levels(tmp_path, capsys, document):
    # 2.5 used to print as 2
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(document))
    assert cli.run(["box", "ic-nested", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be an integer" in captured.err


@pytest.mark.parametrize("levels", [1_000_001, 10**12])
def test_box_nested_rejects_too_many_levels(tmp_path, capsys, levels):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"levels": levels}))
    assert cli.run(["box", "ic-nested", "--input", str(path)]) == 2
    assert "levels" in capsys.readouterr().err


_COUNT_FLAGS = {
    "ic-nested": (["box", "ic-nested", "--n"], (cli.boxes, "nested_ic")),
    "ic-vandam": (["box", "ic-vandam", "--seed", "1", "--trials"], (cli.boxes, "van_dam_ic")),
    "ip-protocol": (["box", "ip-protocol", "--seed", "1", "--trials"], (cli.boxes, "ip_one_bit_protocol")),
    "ip-protocol --n": (["box", "ip-protocol", "--seed", "1", "--n"], (cli.boxes, "ip_one_bit_protocol")),
    "theta-alpha": (["plotdata", "theta-alpha", "--n"], (cli, "bounds_report")),
}


@pytest.mark.parametrize("command", sorted(_COUNT_FLAGS))
def test_count_flags_must_be_positive_integers(monkeypatch, capsys, command):
    argv, (module, worker) = _COUNT_FLAGS[command]

    def never(*args, **kwargs):
        raise AssertionError("ran with an invalid count")

    monkeypatch.setattr(module, worker, never)
    for value in ("0", "-5", "2.5"):
        assert cli.run(argv + [value]) == 2
        assert "positive integer" in capsys.readouterr().err


_CAPPED_FLAGS = {
    "ic-vandam --trials": (["box", "ic-vandam", "--seed", "1", "--trials", "1000001"], "pr_box", "trials"),
    "ip-protocol --trials": (["box", "ip-protocol", "--seed", "1", "--trials", "1000001"], "ip_one_bit_protocol", "trials"),
    "ip-protocol --n": (["box", "ip-protocol", "--seed", "1", "--n", "4097"], "ip_one_bit_protocol", "bits"),
}


@pytest.mark.parametrize("command", sorted(_CAPPED_FLAGS))
def test_sampling_sizes_are_capped_before_any_work(monkeypatch, capsys, command):
    argv, worker, word = _CAPPED_FLAGS[command]

    def never(*args, **kwargs):
        raise AssertionError("sampled past the cap")

    monkeypatch.setattr(cli.boxes, worker, never)
    assert cli.run(argv) == 2
    assert word in capsys.readouterr().err


@pytest.mark.parametrize("family,n,size", [("cycle", "1000", "1000"), ("prism", "40", "80"), ("moebius", "67", "66")])
def test_plotdata_sweep_is_capped_before_any_work(monkeypatch, capsys, family, n, size):
    def never(*args, **kwargs):
        raise AssertionError("solved a sweep past the size cap")

    monkeypatch.setattr(cli, "bounds_report", never)
    assert cli.run(["plotdata", "theta-alpha", "--family", family, "--n", n]) == 2
    assert f"{size} vertices" in capsys.readouterr().err


def test_plotdata_sweep_reaches_the_size_cap(monkeypatch, capsys):
    sizes = []
    real = cli.bounds_report

    def counted(g, **kwargs):
        sizes.append(g.n)
        return real(g, **kwargs)

    monkeypatch.setattr(cli, "bounds_report", counted)
    assert cli.run(["plotdata", "theta-alpha", "--family", "prism", "--n", "32"]) == 0
    assert sizes == list(range(6, 65, 2))
    assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 30


def test_ip_protocol_accepts_the_largest_bit_length(capsys):
    code, data = run_json(capsys, ["box", "ip-protocol", "--seed", "3", "--trials", "2", "--n", "4096"])
    assert code == 0
    assert data["agreement"] == 1.0 and data["bit_length"] == 4096


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "x"])
def test_tol_must_be_positive_and_finite(monkeypatch, capsys, tol):
    def never(*args, **kwargs):
        raise AssertionError("solved with an invalid tolerance")

    monkeypatch.setattr(cli, "bounds_report", never)
    assert cli.run(["bounds", "--family", "cycle", "--n", "5", "--tol", tol]) == 2
    assert "--tol" in capsys.readouterr().err


def test_a_tol_that_is_not_a_number_names_itself(capsys):
    assert cli.run(["bounds", "--family", "cycle", "--n", "5", "--tol", "tiny"]) == 2
    assert "argument --tol: must be a real number, got 'tiny'" in capsys.readouterr().err


_TOL_READERS = [["bounds", "--family", "cycle", "--n", "5"], ["membership"], ["duality", "--family", "cycle", "--n", "5"],
                ["scenario", "check"], ["scenario", "global-section"], ["plotdata", "theta-alpha", "--n", "5"]]
_TOL_IGNORERS = [["suite", "ops"], ["ks", "check"], ["ks", "multiplicative"], ["scenario", "evaluate"],
                 ["box", "check"], ["box", "chsh"], ["box", "gyni"], ["box", "lo"], ["box", "ic-vandam"],
                 ["box", "ic-nested"], ["box", "ip-protocol"]]


def test_tol_is_offered_only_where_it_is_read(capsys):
    for argv in _TOL_READERS:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + ["--tol", "0.5", "--help"])
        assert exc.value.code == 0 and "--tol" in capsys.readouterr().out
    for argv in _TOL_IGNORERS:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + ["--help"])
        assert exc.value.code == 0 and "--tol" not in capsys.readouterr().out


def test_tol_is_refused_where_it_is_not_read_and_used_where_it_is(monkeypatch, capsys):
    assert cli.run(["box", "lo", "--tol", "1"]) == 2
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err
    tols = []
    real = cli.bounds_report

    def recorded(g, tol):
        tols.append(tol)
        return real(g, tol=tol)

    monkeypatch.setattr(cli, "bounds_report", recorded)
    code, data = run_json(capsys, ["bounds", "--family", "cycle", "--n", "5", "--tol", "1e-3"])
    assert code == 0 and tols == [1e-3]
    assert data["theta"] == pytest.approx(ROOT5, abs=1e-3)


def _with(document, path, value):
    doc = json.loads(json.dumps(document))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    assert isinstance(inner[path[-1]], (int, float))
    inner[path[-1]] = value
    return doc


_KS8_PINNED = dict(ks8_vectors().to_json_dict(), pins={"0": 1, "7": 1})
_EVALUATE = {"model": pentagon_extremal_model().to_json_dict(), "gamma": [1, 1, 1, 1, -1]}
_REAL_FIELDS = {
    # command: (argv, valid document, path to one real field)
    "box chsh": (["box", "chsh"], pr_box().to_json_dict(), ("table", "0,0", "0,0")),
    "box lo": (["box", "lo"], pr_box().to_json_dict(), ("table", "1,1", "0,1")),
    "box check": (["box", "check"], pr_box().to_json_dict(), ("table", "0,1", "1,1")),
    "scenario check": (["scenario", "check"], triangle_overlap_model().to_json_dict(), ("tables", "M0,M1", "1,1")),
    "scenario evaluate": (["scenario", "evaluate"], _EVALUATE, ("model", "tables", "M2,M3", "-1,-1")),
    "scenario global-section": (["scenario", "global-section"], triangle_overlap_model().to_json_dict(),
                                ("tables", "M2,M0", "-1,1")),
    "ks check coordinate": (["ks", "check"], _KS8_PINNED, ("vectors", 3, 1)),
    "ks check tol": (["ks", "check"], _KS8_PINNED, ("tol",)),
    "ks multiplicative operator": (["ks", "multiplicative"], _SQUARE, ("operators", 4, 1, 0, 1)),
    "membership p": (["membership"], {"graph": {"n": 5, "edges": [[0, 1]]}, "p": [0.1, 0.2, 0.3, 0.4, 0.5]},
                     ("p", 2)),
    "ic-nested e": (["box", "ic-nested"], {"d": 3, "e": 0.5, "levels": 4}, ("e",)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(_REAL_FIELDS))
def test_a_non_finite_real_exits_2_with_nothing_printed(tmp_path, capsys, case, bad):
    argv, document, field = _REAL_FIELDS[case]
    assert _with(document, field, 0.5) != _with(document, field, bad)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_with(document, field, bad)))
    assert cli.run(argv + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err


@pytest.mark.parametrize("case", sorted(_REAL_FIELDS))
def test_a_real_written_as_text_exits_2_with_nothing_printed(tmp_path, capsys, case):
    # "0.5" spells a valid value of every field, but a JSON string is not a number
    argv, document, field = _REAL_FIELDS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_with(document, field, "0.5")))
    assert cli.run(argv + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "must be real numbers: got text" in captured.err


@pytest.mark.parametrize("case", sorted(_REAL_FIELDS))
def test_a_real_written_as_a_boolean_exits_2_with_nothing_printed(tmp_path, capsys, case):
    # numpy reads a JSON true as 1.0, also inside a list of numbers
    argv, document, field = _REAL_FIELDS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_with(document, field, True)))
    assert cli.run(argv + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "must be real numbers: got bool" in captured.err


@pytest.mark.parametrize("argv, document, message", [
    (["membership"], {"graph": {"n": 5, "edges": [[0, 1]]}, "p": [True, False, False, False, False]},
     "coordinates must be real numbers: got bool"),
    (["scenario", "evaluate"], dict(_EVALUATE, gamma=[True, 1, 1, 1, -1]), "cycle sign must be an integer, got True"),
    (["ks", "check"], dict(_KS8_PINNED, d=True), "dimension must be an integer, got True"),
], ids=["membership p", "evaluate gamma", "ks d"])
def test_a_boolean_exits_2_with_nothing_printed(tmp_path, capsys, argv, document, message):
    # an all-boolean list and two integer fields; a box table entry written
    # as true is a case of the test above
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert cli.run(argv + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_a_ray_system_tolerance_must_be_positive(tmp_path, capsys):
    # the pinned 8-ray system is uncolourable; a tolerance of -1 made every
    # pair non-orthogonal, so it used to come back colourable
    for tol in (-1, 0):
        path = tmp_path / "ks8.json"
        path.write_text(json.dumps(dict(_KS8_PINNED, tol=tol)))
        assert cli.run(["ks", "check", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "tol must be positive" in captured.err


def _repeating(document, key):
    """JSON text of document with its top-level `key` written twice, with
    the same value both times."""
    return "{" + f"{json.dumps(key)}: {json.dumps(document[key])}, " + json.dumps(document)[1:]


_PR_TEXT = json.dumps(pr_box().to_json_dict())
_REPEATED_KEYS = {
    # json keeps the last of two equal keys: this row read "0,1": 0.0 and
    # printed CHSH 4.0
    "box row": (["box", "chsh"], _PR_TEXT.replace('"0,1": 0.0', '"0,1": 0.5, "0,1": 0.0', 1), "'0,1'"),
    "box": (["box", "check"], _repeating(pr_box().to_json_dict(), "table"), "'table'"),
    "model": (["scenario", "check"], _repeating(triangle_overlap_model().to_json_dict(), "outcomes"), "'outcomes'"),
    "graph": (["bounds"], '{"n": 5, "edges": [[0, 1]], "n": 4}', "'n'"),
    "ray system": (["ks", "check"], _repeating(_KS8_PINNED, "pins"), "'pins'"),
}


@pytest.mark.parametrize("case", sorted(_REPEATED_KEYS))
def test_a_repeated_key_exits_2_with_nothing_printed(tmp_path, capsys, case):
    argv, text, key = _REPEATED_KEYS[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    assert cli.run(argv + ["--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"repeated key {key}" in captured.err


@pytest.mark.parametrize("key", ["00", "+0", " 0", "0,1", "0 "])
def test_a_pin_key_spells_one_ray_index(tmp_path, capsys, key):
    # int() reads "00" as 0, so {"0": 1, "00": 0} used to pin ray 0 to 0
    path = tmp_path / "ks8.json"
    path.write_text(json.dumps(dict(_KS8_PINNED, pins={"0": 1, key: 0})))
    assert cli.run(["ks", "check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and repr(key) in captured.err


def test_box_ic_vandam_and_determinism(tmp_path):
    one = tmp_path / "a.json"
    two = tmp_path / "b.json"
    args = ["box", "ic-vandam", "--seed", "5", "--trials", "300"]
    assert cli.run(args + ["--output", str(one)]) == 0
    assert cli.run(args + ["--output", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    data = json.loads(one.read_text())
    assert data["success"] == 1.0
    assert data["mutual_information_bits"] == pytest.approx(2.0, abs=1e-9)


def test_box_ip_protocol_agreement(capsys):
    code, data = run_json(
        capsys, ["box", "ip-protocol", "--seed", "9", "--trials", "50", "--n", "8"]
    )
    assert code == 0
    assert data["agreement"] == 1.0
    assert data["bits_communicated"] == 1


def test_seed_is_required_for_sampling(capsys):
    assert cli.run(["box", "ic-vandam", "--trials", "10"]) == 2
    capsys.readouterr()


def test_plotdata_csv_shape(capsys):
    code = cli.run(["plotdata", "theta-alpha", "--family", "cycle", "--n", "7"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "graph,n,alpha,theta,alpha_star,theta_over_alpha"
    assert lines[1].startswith("cycle(3),3,1,")
    assert len(lines) == 1 + 5  # n = 3..7


def test_suite_ops_passes(capsys):
    code, data = run_json(capsys, ["suite", "ops"])
    assert code == 0
    assert all(row["ok"] for row in data["rows"])


_CIRCULANT10_GAPS = ["Ci10(1,2)", "Ci10(1,2,3)", "Ci10(1,2,3,5)", "Ci10(1,2,5)", "Ci10(1,4)", "Ci10(1,4,5)",
                     "Ci10(2,5)", "J(5,2)"]


def test_suite_circulant10_lists_its_gap_graphs(capsys):
    code, data = run_json(capsys, ["suite", "circulant10"])
    assert code == 0
    assert data["gap_graphs"] == _CIRCULANT10_GAPS
    assert sorted(row["graph"] for row in data["rows"] if row["gap"]) == _CIRCULANT10_GAPS


def test_plotdata_circulant10_has_one_line_per_suite_row(capsys):
    assert cli.run(["plotdata", "theta-alpha", "--family", "circulant10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graph,n,alpha,theta,alpha_star,theta_over_alpha"
    assert len(lines) == 19 and lines[2] == "Ci10(1,2),10,3,3.16718427,3.33333333333,1.05572809"
    assert lines[-1].startswith("J(5,2),10,2,2.49999")


def test_suite_acceptance_passes_all_thirteen_criteria(capsys):
    code, data = run_json(capsys, ["suite", "acceptance"])
    assert code == 0 and data["all_passed"] is True
    assert [c["id"] for c in data["criteria"] if c["passed"]] == [c["id"] for c in data["criteria"]]
    assert len(data["criteria"]) == 13


def test_help_describes_the_json_schema(capsys):
    assert cli.run(["membership", "--help"]) == 0
    text = capsys.readouterr().out
    assert "p" in text and "graph" in text


# any JSON value, kept small so that a fuzzed document stays cheap to run
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-2.0, 2.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


_DROP = object()


def _paths(value, prefix=()):
    """Every field of a JSON document, as a key path; () is the document."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    if new is _DROP and len(path) == 1:
        del out[path[0]]
    else:
        out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


@st.composite
def _mutated(draw, template):
    """A valid document with one or two fields, at any depth, replaced by
    arbitrary JSON; object keys may also be dropped."""
    paths = draw(st.lists(st.sampled_from(list(_paths(template))), min_size=1, max_size=2, unique=True))
    doc = template
    # deepest first, so that a replaced ancestor still holds its child's path
    for path in sorted(paths, key=len, reverse=True):
        droppable = path and isinstance(path[-1], str)
        doc = _replaced(doc, path, draw(_JSON | st.just(_DROP)) if droppable else draw(_JSON))
    return doc


_FUZZ_CASES = {
    "bounds": (["bounds"], {"graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}}),
    "membership": (["membership"], {"graph": {"n": 5, "edges": [[0, 1]]}, "p": [0.1, 0.2, 0.3, 0.4, 0.5]}),
    "box check": (["box", "check"], pr_box().to_json_dict()),
    "scenario global-section": (["scenario", "global-section"], triangle_overlap_model().to_json_dict()),
    "scenario evaluate": (["scenario", "evaluate"], {
        "model": pentagon_extremal_model().to_json_dict(), "gamma": [1, 1, 1, 1, -1], "form": "correlation",
    }),
    "box ic-nested": (["box", "ic-nested"], {"d": 3, "e": 0.5, "levels": 4}),
    "ks check": (["ks", "check"], {
        "d": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], "tol": 1e-9, "pins": {"0": 1},
    }),
    "ks multiplicative": (["ks", "multiplicative"], {
        "operators": [[[[1, 0]]]], "lines": [[0]], "signs": [1],
    }),
}


@pytest.mark.parametrize("command", sorted(_FUZZ_CASES))
def test_json_loaders_never_raise(command):
    argv, template = _FUZZ_CASES[command]

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(_mutated(template))
    def check(document):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv + ["--input", path])
        assert code in (0, 1, 2)

    check()
