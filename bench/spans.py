"""Span tracing from outside the package.

A traced pass replaces functions of the exgraph modules with wrappers that
record one span each call: name, parent span, start, end, and a few facts
read from the arguments or the result.  Spans stay in memory and are written
out when the pass ends.  A layer's self time is the sum over its spans of the
span's duration minus the durations of its direct children.

Kernel hooks wrap only the binding named, which is the name the caller
imported (`bounds.sdp_solve` is the SDP solver as `bounds` calls it), so a
caller that switches kernels simply loses the hook.  Other hooks wrap the
function everywhere it is bound in a loaded exgraph module, including
module-level lists such as the acceptance battery.  A hook whose target no
longer exists is reported as absent (value null), never as zero.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable

_MODULES = ("graph", "bounds", "scenarios", "boxes", "quantum", "kscolor", "excl", "acceptance", "cli")


def _sdp_info(args, kwargs, result, error):
    c = args[0] if args else kwargs["c"]
    info = {"dim": len(c)}
    if error is None:
        info.update(iterations=result.iterations, gap=result.upper - result.lower)
    return info


def _lp_info(args, kwargs, result, error):
    lp = args[0] if args else kwargs["lp"]
    info = {"rows": int(lp.a.shape[0]), "vars": int(lp.c.size)}
    if error is None:
        info["status"] = result.status
    return info


def _count_info(key: str, of: Callable):
    def info(args, kwargs, result, error):
        return {} if error is not None else {key: of(result)}
    return info


@dataclass(frozen=True)
class Hook:
    target: str  # "module.attribute" inside exgraph
    kernel: bool = False  # wrap only this binding
    info: Callable | None = None


HOOKS = [
    Hook("bounds.sdp_solve", kernel=True, info=_sdp_info),
    Hook("bounds.lp_solve", kernel=True, info=_lp_info),
    Hook("boxes.lp_solve", kernel=True, info=_lp_info),
    Hook("scenarios.lp_solve", kernel=True, info=_lp_info),
    Hook("bounds.lovasz_theta"),
    Hook("bounds.independence_number"),
    Hook("bounds.maximal_cliques", info=_count_info("found", len)),
    Hook("bounds.fractional_packing"),
    Hook("bounds.stab_membership"),
    Hook("bounds.th_membership"),
    Hook("bounds.qstab_membership"),
    Hook("graph.is_isomorphic"),
    Hook("graph.isomorphism_witness"),
    Hook("graph.is_vertex_transitive"),
    Hook("kscolor.classify_colorability", info=_count_info("trace_events", lambda r: len(r.trace))),
    Hook("excl.conormal_product"),
    Hook("excl.duality_suite"),
    Hook("excl.op_propagation_suite"),
    Hook("excl.circulant10_suite"),
    Hook("boxes.is_local"),
    Hook("boxes.van_dam_ic"),
    Hook("boxes.nested_ic"),
    Hook("boxes.ip_one_bit_protocol"),
    Hook("boxes.local_orthogonality_two_pr"),
    Hook("quantum.bell_qubit_hv_expectation"),
    Hook("scenarios.has_global_section"),
    Hook("cli.run"),
] + [Hook(f"acceptance.criterion_{k}") for k in range(1, 14)]

_LP = ("bounds.lp_solve", "boxes.lp_solve", "scenarios.lp_solve")
_ISO = ("graph.is_isomorphic", "graph.isomorphism_witness", "graph.is_vertex_transitive")
_PROTOCOLS = ("boxes.van_dam_ic", "boxes.nested_ic", "boxes.ip_one_bit_protocol", "boxes.local_orthogonality_two_pr")
_SUITES = ("excl.duality_suite", "excl.op_propagation_suite", "excl.circulant10_suite")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.absent: set[str] = set()

    def wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1, "start": time.perf_counter()}
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if info is not None:
                    span.update(info(args, kwargs, result, error))

        return traced

    def install(self, hooks=HOOKS) -> None:
        modules = [importlib.import_module(f"exgraph.{m}") for m in _MODULES]
        for hook in hooks:
            modname, attr = hook.target.rsplit(".", 1)
            owner = importlib.import_module(f"exgraph.{modname}")
            orig = getattr(owner, attr, None)
            if not callable(orig):
                self.absent.add(hook.target)
                continue
            wrapped = self.wrap(hook.target, orig, hook.info)
            for mod in [owner] if hook.kernel else modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, list) and not hook.kernel:
                        value[:] = [wrapped if v is orig else v for v in value]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer totals; None marks a metric whose hooks are all absent."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s["name"], []).append(i)

        def present(names) -> bool:
            return any(n not in self.absent for n in names)

        def pick(names):
            return [i for n in names for i in by_name.get(n, [])]

        def self_s(*names):
            if not present(names):
                return None
            return sum(spans[i]["end"] - spans[i]["start"] - child[i] for i in pick(names))

        def total_s(*names):
            if not present(names):
                return None
            return sum(spans[i]["end"] - spans[i]["start"] for i in pick(names))

        def calls(*names):
            return len(pick(names)) if present(names) else None

        def agg(fn, key, *names):
            if not present(names):
                return None
            vals = [spans[i][key] for i in pick(names) if key in spans[i]]
            return fn(vals) if vals else 0

        def count(names, where):
            return sum(1 for i in pick(names) if where(spans[i])) if present(names) else None

        sdp = ("bounds.sdp_solve",)
        theta = ("bounds.lovasz_theta",)
        out = {
            "sdp.time_s": self_s(*sdp),
            "sdp.calls": calls(*sdp),
            "sdp.iterations": agg(sum, "iterations", *sdp),
            "sdp.iterations_max": agg(max, "iterations", *sdp),
            "sdp.failures": count(sdp, lambda s: "error" in s),
            "sdp.gap_max": agg(max, "gap", *sdp),
            "sdp.dim_max": agg(max, "dim", *sdp),
            "lp.time_s": self_s(*_LP),
            "lp.calls": calls(*_LP),
            "lp.failures": count(_LP, lambda s: "error" in s),
            "lp.infeasible": count(_LP, lambda s: s.get("status") == "infeasible"),
            "lp.rows_max": agg(max, "rows", *_LP),
            "lp.vars_max": agg(max, "vars", *_LP),
            "bounds.theta_calls": calls(*theta),
            "bounds.theta_s": self_s(*theta),
            "bounds.alpha_s": self_s("bounds.independence_number"),
            "bounds.cliques_s": self_s("bounds.maximal_cliques"),
            "bounds.cliques_found": agg(sum, "found", "bounds.maximal_cliques"),
            "bounds.packing_s": self_s("bounds.fractional_packing"),
            "bounds.stab_s": self_s("bounds.stab_membership"),
            "bounds.th_s": self_s("bounds.th_membership"),
            "bounds.qstab_s": self_s("bounds.qstab_membership"),
            "bounds.theta_cache_hits": None,
            "graph.iso_calls": calls(*_ISO),
            "graph.iso_s": self_s(*_ISO),
            "kscolor.classify_calls": calls("kscolor.classify_colorability"),
            "kscolor.classify_s": self_s("kscolor.classify_colorability"),
            "kscolor.trace_events": agg(sum, "trace_events", "kscolor.classify_colorability"),
            "excl.conormal_s": self_s("excl.conormal_product"),
            "excl.suite_s": self_s(*_SUITES),
            "boxes.local_calls": calls("boxes.is_local"),
            "boxes.local_s": self_s("boxes.is_local"),
            "boxes.protocol_s": self_s(*_PROTOCOLS),
            "quantum.hv_s": self_s("quantum.bell_qubit_hv_expectation"),
            "scenarios.global_section_s": self_s("scenarios.has_global_section"),
            "cli.self_s": self_s("cli.run"),
        }
        # criteria are reported inclusive of their children, which is what
        # tells which criterion a change in the battery's wall time came from
        for k in range(1, 14):
            out[f"acceptance.c{k:02d}_s"] = total_s(f"acceptance.criterion_{k}")
        if present(theta) and present(sdp):
            solved = set()
            for i in by_name.get("bounds.sdp_solve", []):
                j = spans[i]["parent"]
                while j >= 0 and spans[j]["name"] != "bounds.lovasz_theta":
                    j = spans[j]["parent"]
                if j >= 0:
                    solved.add(j)
            out["bounds.theta_cache_hits"] = len(by_name.get("bounds.lovasz_theta", [])) - len(solved)
        return out
