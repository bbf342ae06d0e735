"""Span tracer around dgcalc's public functions, installed from outside.

Each wrapped call records a span [name, start, end, parent, note] in memory;
`note` holds the work counts read off the call's arguments and result.
Spans are written out when the process ends and summarized per layer by
`summarize`, which also checks that the spans form a proper tree.

A wrapper is rebound in every dgcalc module that holds the original
function, so calls through names imported with `from .engine import
syzygies` are seen as well as calls through `engine.syzygies`.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute, span name).  "Class.method" attributes are wrapped on
# the class; everything else is rebound wherever dgcalc imported it.
TARGETS = [
    ("dgcalc.poly", "parse", "poly.parse"),
    ("dgcalc.poly", "serialize", "poly.serialize"),
    ("dgcalc.operators", "load_operator", "operators.load"),
    ("dgcalc.operators", "operator_json", "operators.dump"),
    ("dgcalc.operators", "adjoint", "operators.adjoint"),
    ("dgcalc.operators", "compose", "operators.compose"),
    ("dgcalc.operators", "cc", "operators.cc"),
    ("dgcalc.operators", "factor_through", "operators.factor"),
    ("dgcalc.engine", "reduced_groebner", "engine.groebner"),
    ("dgcalc.engine", "syzygies", "engine.syzygies"),
    ("dgcalc.engine", "minimize_generators", "engine.minimize"),
    ("dgcalc.engine", "FreeElem.dot", "engine.dot"),
    ("dgcalc.engine", "GroebnerBasis.contains", "engine.contains"),
    ("dgcalc.engine", "resolve_module", "engine.resolve"),
    ("dgcalc.engine", "divide_with_cofactors", "engine.divide"),
    ("dgcalc.engine", "fraction_rank", "engine.rank"),
    ("dgcalc.duality", "param_test", "duality.param_test"),
    ("dgcalc.duality", "ext_module", "duality.ext"),
    ("dgcalc.duality", "minimal_parametrization", "duality.minparam"),
] + [
    ("dgcalc.zoo", fn, "zoo")
    for fn in (
        "killing", "conformal_killing", "cauchy", "weyl_killing",
        "riemann_lin", "ricci_lin", "scalar_lin", "einstein_lin", "c_map",
        "c_map_inverse", "weyl_component_selection", "weyl_lin", "grad",
        "div", "curl", "exterior_derivative", "box_weyl", "dalembertian",
        "lame", "hooke2d", "hooke2d_inverse", "cosserat_spencer",
        "cosserat_equilibrium", "cosserat_parametrization", "cosserat2d",
        "diagram1_table", "build",
    )
]

MARK = "__perfbench_original__"


def _dgcalc_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "dgcalc" or name.startswith("dgcalc."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gb_inputs: set = set()

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        setattr(traced, MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own, for entry points."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _notes(self) -> dict:
        from dgcalc.engine import FreeElem

        seen = self._gb_inputs

        def groebner(args, gb):
            key = tuple(r if isinstance(r, FreeElem) else FreeElem(r) for r in args[0])
            repeat = key in seen
            seen.add(key)
            return [int(repeat), len(gb)]

        return {
            "poly.parse": lambda args, p: len(p.terms),
            "engine.groebner": groebner,
            "engine.syzygies": lambda args, out: len(out),
            "engine.minimize": lambda args, out: [len(args[0]), len(out)],
        }

    # -- installing --------------------------------------------------------------

    def install(self) -> None:
        for mod in ("dgcalc", "dgcalc.cli", "dgcalc.report"):
            importlib.import_module(mod)
        notes = self._notes()
        modules = _dgcalc_modules()
        for modname, attr, name in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, notes.get(name)))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(name, orig, notes.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)


def wrappers_present() -> list[str]:
    """Names in dgcalc's modules and classes that still hold a wrapper."""
    found = []
    for m in _dgcalc_modules():
        for key, value in vars(m).items():
            if hasattr(value, MARK):
                found.append(f"{m.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append(f"{m.__name__}.{key}.{attr}")
    return found


# -- summarizing -------------------------------------------------------------------


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, self seconds and summed notes, plus the count
    of Groebner calls made under a param_test span.

    Checks the tree on the way: every child lies inside its parent, and a
    span's self time (its duration less the part its children cover) plus
    its children's durations equals its duration.  Raises ValueError
    otherwise.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        # the part of [start, end] covered by children, as a union of intervals
        covered, reach, child_sum = 0.0, start, 0.0
        for k in sorted(children[i], key=lambda k: spans[k][1]):
            ks, ke = spans[k][1], spans[k][2]
            if ks < start or ke > end:
                raise ValueError(f"span {name} #{i}: child {spans[k][0]} outside it")
            covered += max(0.0, ke - max(ks, reach))
            reach = max(reach, ke)
            child_sum += ke - ks
        self_s = (end - start) - covered
        if abs(self_s + child_sum - (end - start)) > 1e-9:
            raise ValueError(f"span {name} #{i}: self time plus children != duration")
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "notes": []})
        agg["calls"] += 1
        agg["self_s"] += self_s
        if note is not None:
            agg["notes"].append(note)
    under = 0
    for name, _, _, parent, _ in spans:
        if name != "engine.groebner":
            continue
        while parent >= 0:
            if spans[parent][0] == "duality.param_test":
                under += 1
                break
            parent = spans[parent][3]
    out["duality.param_test.groebner_calls"] = under
    return out
