"""Command-line frontend.

Every computation and suite is reachable as a subcommand with JSON input
and JSON (or CSV) output.  Numeric output is printed with 12 significant
digits and dictionary keys are sorted, so identical inputs and seeds give
byte-identical results.

Exit codes: 0 success, 1 computation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import acceptance, boxes, excl, kscolor, scenarios
from . import graph as gr
from .bounds import _THETA_TOL, bounds_report, qstab_membership, stab_membership, th_membership
from .numkernel import LpError, SdpError


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(format(float(obj), ".12g"))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(data, output: str | None) -> None:
    text = json.dumps(_round_floats(data), sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header: list[str], rows: list[list], output: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format(cell, ".12g"))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _parse(data, key: str, parse, what: str):
    """parse() of a loaded JSON document, or of its `key` field when the
    document is an object that has one; a parse failure is an input error
    that starts "bad {what} JSON"."""
    if isinstance(data, dict) and key in data:
        data = data[key]
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {what} JSON: {exc}") from exc


def _parse_offsets(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad --offsets value {text!r}: {exc}") from exc


def _graph_from_args(args, data=None) -> tuple[gr.Graph, str]:
    """Build the graph either from --family flags or from JSON input: the
    document `data` when the caller has already loaded --input, else the
    file."""
    if getattr(args, "family", None):
        params = {}
        if args.n is not None:
            params["n"] = args.n
        if args.offsets:
            offs = _parse_offsets(args.offsets)
            if args.family == "johnson":
                params["m"], params["k"] = offs
            elif args.family == "johnson_gqs":
                params["q"], params["s"] = offs
            else:
                params["offsets"] = offs
        name = args.family if args.n is None else f"{args.family}({args.n})"
        return gr.build_family(args.family, **params), name
    if not getattr(args, "input", None):
        raise ValueError("expected a graph object or --family flags")
    if data is None:
        data = _load_json(args.input)
    return _parse(data, "graph", gr.from_json_dict, "graph"), "graph"


def _cmd_bounds(args) -> int:
    g, _ = _graph_from_args(args)
    rep = bounds_report(g, tol=args.tol or _THETA_TOL)
    _emit(rep.to_json_dict(), args.output)
    return 0


def _cmd_membership(args) -> int:
    if not args.input:
        raise ValueError('membership needs --input with a "p" array')
    data = _load_json(args.input)
    if not (isinstance(data, dict) and "p" in data):
        raise ValueError('membership input must contain a "p" array')
    g, _ = _graph_from_args(args, data)
    p = data["p"]
    in_stab, stab_cert = stab_membership(g, p)
    in_th, theta_c = th_membership(g, p, tol=args.tol or 1e-6)
    in_qstab, qstab_cert = qstab_membership(g, p)
    out = {
        "stab": in_stab,
        "th": in_th,
        "theta_complement": theta_c,
        "qstab": in_qstab,
    }
    if not in_stab and isinstance(stab_cert, dict):
        out["stab_separation"] = {
            "a": list(stab_cert["a"]),
            "beta": stab_cert["beta"],
        }
    if not in_qstab and qstab_cert:
        out["qstab_failure"] = qstab_cert
    _emit(out, args.output)
    return 0


def _cmd_duality(args) -> int:
    g, name = _graph_from_args(args)
    rep = excl.duality_suite(g, graph_id=name, tol=args.tol or _THETA_TOL)
    _emit(rep.to_json_dict(), args.output)
    return 0


def _cmd_suite(args) -> int:
    if args.which == "ops":
        _emit({"rows": excl.op_propagation_suite()}, args.output)
        return 0
    if args.which == "circulant10":
        _emit(excl.circulant10_suite(), args.output)
        return 0
    results = acceptance.run_all()
    payload = {
        "criteria": [
            {"id": r.cid, "description": r.description, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit(payload, args.output)
    return 0 if payload["all_passed"] else 1


def _cmd_ks_check(args) -> int:
    data = _load_json(args.input)
    try:
        vs = kscolor.vector_system_from_json_dict(data)
        pins = {int(k): v for k, v in (data.get("pins") or {}).items()}
        problem = kscolor.coloring_problem(vs, pins)
    except (AttributeError, TypeError) as exc:
        raise ValueError(str(exc)) from exc
    res = kscolor.classify_colorability(problem)
    out = {
        "status": res.status,
        "rays": len(vs.vectors),
        "bases": len(problem.bases),
        "witness": None if res.witness is None else {str(k): v for k, v in res.witness.items()},
        "trace": res.trace,
    }
    _emit(out, args.output)
    return 0


_BUILTIN_PROOFS = {"square": kscolor.peres_mermin_square, "star": kscolor.dim8_star}


def _cmd_ks_multiplicative(args) -> int:
    if args.builtin:
        spec = _BUILTIN_PROOFS[args.builtin]()
    elif args.input:
        spec = kscolor.proof_spec_from_json_dict(_load_json(args.input))
    else:
        raise ValueError("give --input FILE or --builtin square|star")
    rep = kscolor.verify_multiplicative_proof(spec)
    _emit({
        "operators_ok": rep.operators_ok,
        "lines_commute": rep.lines_commute,
        "products_match": rep.products_match,
        "assignment_exists": rep.assignment_exists,
    }, args.output)
    return 0


def _cmd_scenario(args) -> int:
    data = _load_json(args.input)
    model = _parse(data, "model", scenarios.model_from_json_dict, "model")
    if args.which == "check":
        ok, violations = scenarios.check_nondisturbance(model, tol=args.tol or 1e-9)
        _emit({"nondisturbing": ok, "violations": violations}, args.output)
        return 0
    if args.which == "global-section":
        exists, cert = scenarios.has_global_section(model, tol=args.tol or 1e-7)
        out = {"exists": exists}
        if exists:
            out["distribution"] = {
                " ".join(f"{m}={v}" for m, v in atom): w
                for atom, w in cert["distribution"].items()
            }
        else:
            out["separating_functional"] = cert
        _emit(out, args.output)
        return 0
    if "gamma" not in data:
        raise ValueError('evaluate input needs a "gamma" array next to the model')
    try:
        gamma = tuple(data["gamma"])
    except TypeError as exc:
        raise ValueError(f'"gamma" must be an array of 1 and -1: {exc}') from exc
    ineq = scenarios.ncycle_inequality(len(gamma), gamma)
    form = data.get("form", "correlation")
    value = scenarios.evaluate_inequality(model, ineq, form=form)
    bound = ineq.bound if form == "correlation" else ineq.prob_bound
    _emit({
        "inequality": ineq.name,
        "form": form,
        "value": value,
        "classical_bound": bound,
        "violated": value > bound + 1e-12,
    }, args.output)
    return 0


def _cmd_box(args) -> int:
    which = args.which
    if which in ("check", "chsh", "gyni", "lo"):
        box = _parse(_load_json(args.input), "box", boxes.box_from_json_dict, "box") if args.input else None
    if which == "check":
        ns, ns_detail = boxes.is_nosignaling(box)
        local, cert = boxes.is_local(box)
        out = {"nosignaling": ns, "local": local}
        if not ns and ns_detail:
            out["signaling_detail"] = ns_detail
        _emit(out, args.output)
        return 0
    if which == "chsh":
        _emit({"value": boxes.chsh_value(box)}, args.output)
        return 0
    if which == "gyni":
        _emit({"value": boxes.gyni_value(box)}, args.output)
        return 0
    if which == "lo":
        _emit({"value": boxes.local_orthogonality_two_pr(box)}, args.output)
        return 0
    if which == "ic-vandam":
        res = boxes.van_dam_ic(seed=args.seed, trials=args.trials or 10_000,
                               e=args.noise if args.noise is not None else 1.0)
        _emit({
            "success": res.success,
            "mutual_information_bits": res.mutual_information,
            "message_bits": res.message_bits,
            "trials": res.trials,
            "seed": res.seed,
        }, args.output)
        return 0
    if which == "ic-nested":
        params = _load_json(args.input) if args.input else {}
        if not isinstance(params, dict):
            raise ValueError('ic-nested input must be an object {"d", "e", "levels"}')
        d, levels = params.get("d", 2), params.get("levels", args.n or 6)
        res = boxes.nested_ic(d, params.get("e", 1.0), levels)
        _emit({
            "d": d,
            "e": res.e,
            "levels": res.levels,
            "success": res.success,
            "closed_form": ((d - 1) * res.e**levels + 1) / d,
            "ic_violation_condition": res.ic_violation_condition,
        }, args.output)
        return 0
    # ip-protocol: random instances against the direct oracle
    bits = args.n or 16
    instances = args.trials or 1000
    agreement = boxes.ip_protocol_agreement(args.seed, instances, bits)
    _emit({
        "instances": instances,
        "bit_length": bits,
        "agreement": agreement,
        "bits_communicated": 1,
        "seed": args.seed,
    }, args.output)
    return 0


def _cmd_plotdata(args) -> int:
    rows = []
    if args.family == "circulant10":
        for row in excl.circulant10_suite()["rows"]:
            rows.append([row["graph"], row["n"], row["alpha"], row["theta"],
                         row["alpha_star"], row["theta_over_alpha"]])
    else:
        upper = args.n or 11
        builders = {"cycle": gr.cycle_graph, "prism": gr.prism_graph, "moebius": gr.moebius_ladder}
        if args.family not in builders:
            raise ValueError(f"plotdata family must be one of {sorted(builders)} or circulant10")
        lo = 4 if args.family == "moebius" else 3
        largest = {"cycle": upper, "prism": 2 * upper, "moebius": upper - upper % 2}[args.family]
        if largest > gr.MAX_VERTICES:
            raise ValueError(f"plotdata --n {upper} reaches a {args.family} graph on {largest} vertices, "
                             f"above the supported maximum {gr.MAX_VERTICES}")
        for n in range(lo, upper + 1):
            if args.family == "moebius" and n % 2:
                continue
            g = builders[args.family](n)
            rep = bounds_report(g, tol=args.tol or _THETA_TOL)
            rows.append([f"{args.family}({n})", g.n, rep.alpha, rep.theta,
                         rep.alpha_star, rep.theta / rep.alpha])
    _emit_csv(["graph", "n", "alpha", "theta", "alpha_star", "theta_over_alpha"], rows, args.output)
    return 0


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="graph family: cycle|path|complete|prism|moebius|circulant|petersen|johnson|johnson_gqs")
    p.add_argument("--n", type=int, help="size parameter for --family")
    p.add_argument("--offsets", help="comma-separated integers (circulant offsets; m,k for johnson; q,s for johnson_gqs)")
    p.add_argument("--input", help="JSON file with a graph object {n, edges[, labels]}")


def _tolerance(text: str) -> float:
    try:
        return gr._tolerance(text, "--tol")
    except gr.GraphError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return count


def _add_common(p: argparse.ArgumentParser, tol: bool = False) -> None:
    """--output, and --tol on the subcommands that read it."""
    p.add_argument("--output", help="write to this file instead of standard output")
    if tol:
        p.add_argument("--tol", type=_tolerance, help="numeric tolerance override (positive)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="exgraph",
        description="exclusivity-graph contextuality toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="alpha, theta, alpha* of a graph",
                       description='Output: {"alpha", "theta", "alpha_star", "ratio", "witness_independent_set"}.')
    _add_graph_flags(p)
    _add_common(p, tol=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("membership", help="STAB/TH/QSTAB membership of an assignment",
                       description='Input JSON: {"graph": {n, edges}, "p": [..]} (or --family flags plus {"p": [..]}). '
                                   'Output: {"stab", "th", "theta_complement", "qstab"} plus certificates on rejection.')
    _add_graph_flags(p)
    _add_common(p, tol=True)
    p.set_defaults(fn=_cmd_membership)

    p = sub.add_parser("duality", help="complement-duality report of a graph",
                       description='Output: DualityReport fields {"graph", "n", "theta", "theta_complement", "product", '
                                   '"vertex_transitive", "self_complementary", "e_principle_max", pass/fail flags}.')
    _add_graph_flags(p)
    _add_common(p, tol=True)
    p.set_defaults(fn=_cmd_duality)

    p = sub.add_parser("suite", help="run a verification suite",
                       description="ops: theta under graph operations; circulant10: the ten-vertex census; "
                                   "acceptance: the full acceptance battery (exit 1 on any failure).")
    p.add_argument("which", choices=["ops", "circulant10", "acceptance"])
    _add_common(p)
    p.set_defaults(fn=_cmd_suite)

    ks = sub.add_parser("ks", help="ray-system colorability and operator proofs").add_subparsers(
        dest="which", required=True)
    p = ks.add_parser("check", help="classify a vector system",
                      description='Input JSON: {"d": dim, "vectors": [[..]..], "tol": eps, "pins": {"i": 0|1}}. '
                                  'Output: {"status", "rays", "bases", "witness", "trace"}.')
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_ks_check)
    p = ks.add_parser("multiplicative", help="verify an operator-product proof",
                      description='Input JSON: {"operators": [[[re,im]..]..], "lines": [[i..]..], "signs": [1|-1..]} '
                                  'or --builtin square|star. Output: the four verification booleans.')
    p.add_argument("--input")
    p.add_argument("--builtin", choices=sorted(_BUILTIN_PROOFS))
    _add_common(p)
    p.set_defaults(fn=_cmd_ks_multiplicative)

    sc = sub.add_parser("scenario", help="empirical-model operations").add_subparsers(
        dest="which", required=True)
    for which, helptext, desc in (
        ("check", "non-disturbance test",
         'Input: model JSON {"measurements", "outcomes", "contexts", "tables"}. Output: {"nondisturbing", "violations"}.'),
        ("global-section", "joint-distribution feasibility",
         'Input: model JSON. Output: {"exists"} with a distribution or a separating functional.'),
        ("evaluate", "evaluate a cycle inequality on a model",
         'Input: {"model": .., "gamma": [1,-1,..], "form": "correlation"|"probability"}. '
         'Output: {"value", "classical_bound", "violated"}.'),
    ):
        p = sc.add_parser(which, help=helptext, description=desc)
        p.add_argument("--input", required=True)
        _add_common(p, tol=which != "evaluate")
        p.set_defaults(fn=_cmd_scenario)

    bx = sub.add_parser("box", help="Bell-box operations").add_subparsers(dest="which", required=True)
    for which, helptext, desc, needs_input in (
        ("check", "normalization, no-signaling, locality",
         'Input: box JSON {"parties", "settings", "outcomes", "table"}. Output: {"nosignaling", "local"}.', True),
        ("chsh", "CHSH value of a two-party binary box", 'Output: {"value"}.', True),
        ("gyni", "guess-your-neighbour's-input value", 'Output: {"value"}.', True),
        ("lo", "two-copy orthogonal-event sum (default: perfect PR)", 'Output: {"value"} (5/4 for PR).', False),
    ):
        p = bx.add_parser(which, help=helptext, description=desc)
        p.add_argument("--input", required=needs_input)
        _add_common(p)
        p.set_defaults(fn=_cmd_box)
    p = bx.add_parser("ic-vandam", help="information-causality violation protocol",
                      description='Output: {"success", "mutual_information_bits", "message_bits", "trials", "seed"}.')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=_count)
    p.add_argument("--noise", type=float, help="box correlation strength E (default 1.0)")
    _add_common(p)
    p.set_defaults(fn=_cmd_box)
    p = bx.add_parser("ic-nested", help="nested noisy-box success probability",
                      description='Input (optional): {"d", "e", "levels"}. Output: {"success", "closed_form", "ic_violation_condition"}.')
    p.add_argument("--input")
    p.add_argument("--n", type=_count, help="levels when no input file is given")
    _add_common(p)
    p.set_defaults(fn=_cmd_box)
    p = bx.add_parser("ip-protocol", help="one-bit distributed inner-product protocol vs direct oracle",
                      description='Output: {"instances", "bit_length", "agreement", "bits_communicated", "seed"}.')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=_count, help="number of random instances (default 1000)")
    p.add_argument("--n", type=_count, help="bit length per instance (default 16)")
    _add_common(p)
    p.set_defaults(fn=_cmd_box)

    pd = sub.add_parser("plotdata", help="CSV sweeps for plotting").add_subparsers(
        dest="which", required=True)
    p = pd.add_parser("theta-alpha", help="graph,n,alpha,theta,alpha_star,theta_over_alpha sweep",
                      description="CSV with header graph,n,alpha,theta,alpha_star,theta_over_alpha. "
                                  "--family cycle|prism|moebius with --n upper bound, or --family circulant10.")
    p.add_argument("--family", default="cycle")
    p.add_argument("--n", type=_count)
    _add_common(p, tol=True)
    p.set_defaults(fn=_cmd_plotdata)

    return ap


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (SdpError, LpError, RuntimeError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so this clause comes first
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, gr.GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
