"""Seeded inputs for the benchmark, and an exact evaluator to check outputs.

Nothing here imports dgcalc: the program under test only ever sees the
documents and operators built from these plans.  A linear form is a list of
integer coefficients, the last one being the constant term; a factor is a
(linear form, exponent) pair; an entry is a list of (coefficient, factors)
products.  The same plan both renders to the text a user would write and
evaluates exactly at a rational point, which is how outputs are checked.
"""

from __future__ import annotations

import re
from fractions import Fraction
from random import Random

# -- plans and their text ------------------------------------------------------
#
# Every generator takes two random streams.  `shape` decides structure
# (variables, sizes, zero pattern, which variables a linear form uses,
# exponents) and never depends on the seed; `coef` draws the nonzero
# coefficients from the seed.  So a new seed gives new inputs of the same
# size, and the work per pass barely moves between seeds.


def _linear_form(shape: Random, coef: Random, nvars: int, constant: bool) -> list[int]:
    support = [i for i in range(nvars) if shape.random() < 0.75] or [shape.randrange(nvars)]
    form = [coef.choice((-3, -2, -1, 1, 2, 3)) if i in support else 0 for i in range(nvars)]
    form.append(coef.choice((-2, -1, 1, 2)) if constant else 0)
    return form


def _form_text(form: list[int]) -> str:
    parts = []
    for i, c in enumerate(form):
        if c == 0:
            continue
        sym = f"d{i + 1}" if i < len(form) - 1 else ""
        mag = abs(c)
        body = sym if (mag == 1 and sym) else (f"{mag}*{sym}" if sym else str(mag))
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def entry_text(entry: list) -> str:
    """Render one entry as a sum of products of powers of linear forms."""
    if not entry:
        return "0"
    chunks = []
    for coeff, factors in entry:
        body = "*".join(
            f"({_form_text(f)})" + (f"^{e}" if e != 1 else "") for f, e in factors
        )
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        text = body if mag == 1 else f"{mag}*{body}"
        chunks.append((sign, text))
    first_sign, first = chunks[0]
    out = [f"-{first}" if first_sign == "-" else first]
    out += [f"{s} {t}" for s, t in chunks[1:]]
    return " ".join(out)


def _random_entry(shape: Random, coef: Random, nvars: int, *, terms: int,
                  factors: int, max_exp: int, constant: bool) -> list:
    entry = []
    for _ in range(terms):
        c = Fraction(coef.choice((-3, -2, -1, 1, 2, 3)), coef.choice((1, 1, 1, 2)))
        fs = [
            (_linear_form(shape, coef, nvars, constant), shape.randint(1, max_exp))
            for _ in range(shape.randint(1, factors))
        ]
        entry.append((c, fs))
    return entry


def operator_doc(name: str, nvars: int, matrix: list[list[list]]) -> dict:
    """An operator document in the program's JSON format, unit weights."""
    rows, cols = len(matrix), len(matrix[0])
    return {
        "name": name,
        "nvars": nvars,
        "source": {"name": f"{name}_src",
                   "components": [{"label": str(j + 1), "weight": "1"}
                                  for j in range(cols)]},
        "target": {"name": f"{name}_tgt",
                   "components": [{"label": str(i + 1), "weight": "1"}
                                  for i in range(rows)]},
        "matrix": [[entry_text(e) for e in row] for row in matrix],
    }


def random_matrix(shape: Random, coef: Random, nvars: int, rows: int, cols: int, *,
                  max_exp: int, factors: int, constant: bool,
                  zero_share: float = 0.3) -> list[list[list]]:
    """Entries are sums of one or two products of powers of linear forms.
    The diagonal is nonzero, so every row and column has an entry."""
    return [
        [
            _random_entry(shape, coef, nvars, terms=shape.randint(1, 2),
                          factors=factors, max_exp=max_exp, constant=constant)
            if j == i % cols or i == j % rows or shape.random() >= zero_share else []
            for j in range(cols)
        ]
        for i in range(rows)
    ]


# -- exact evaluation ------------------------------------------------------------


def eval_entry(entry: list, point: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for coeff, factors in entry:
        v = Fraction(coeff)
        for form, e in factors:
            lin = sum((c * x for c, x in zip(form[:-1], point)), Fraction(form[-1]))
            v *= lin ** e
        total += v
    return total


_CANON_TERM = re.compile(
    r"^(?:(?P<num>\d+(?:/\d+)?)(?:\*|$))?(?P<mono>(?:d\d+(?:\^\d+)?\*?)*)$"
)


def eval_canonical(text: str, point: list[Fraction]) -> Fraction:
    """Evaluate the program's canonical output form, for example
    '-3/2*d1^2*d2 + d3 - 1', written independently of its parser."""
    text = text.strip()
    if text == "0":
        return Fraction(0)
    tokens = text.split(" ")
    signed = [("+", tokens[0])] if not tokens[0].startswith("-") else [("-", tokens[0][1:])]
    for k in range(1, len(tokens), 2):
        signed.append((tokens[k], tokens[k + 1]))
    total = Fraction(0)
    for sign, term in signed:
        m = _CANON_TERM.match(term)
        if m is None or sign not in "+-":
            raise ValueError(f"not a canonical term: {term!r} in {text!r}")
        v = Fraction(m.group("num")) if m.group("num") else Fraction(1)
        for sym in filter(None, m.group("mono").split("*")):
            base, _, exp = sym.partition("^")
            v *= point[int(base[1:]) - 1] ** (int(exp) if exp else 1)
        total += -v if sign == "-" else v
    return total


def random_point(rng: Random, nvars: int) -> list[Fraction]:
    return [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997))
            for _ in range(nvars)] + [Fraction(1)]


# -- CLI workload plan ---------------------------------------------------------------

# Large operators built by the zoo and then transformed; seed-independent.
ZOO_BUILDS = [
    ("weyl", 6, "euclidean"),
    ("box_weyl", 5, "euclidean"),
    ("box_weyl", 5, "minkowski"),
    ("riemann", 6, "euclidean"),
    ("killing", 6, "euclidean"),
    ("einstein", 4, "minkowski"),
]


def cli_plan(seed: int) -> dict:
    """Documents and the fixed command list for one pass of cli-docs.

    The command list is an assumed CLI session, not one taken from usage.

    `adjoint` documents carry powers up to 8, so parsing and Poly
    arithmetic dominate; `cc` documents are kept to degree two in two or
    three variables with more rows than columns, so relations exist and the
    Groebner work stays small.  Each command names its check.
    """
    shape, coef = Random("cli-docs:shape"), Random(f"cli-docs:{seed}")
    docs, plans, cmds = {}, {}, []
    for kind, n, metric in ZOO_BUILDS:
        stem = f"{kind}_{metric[0]}{n}"
        cmds.append({"argv": ["zoo", kind, "--n", str(n), "--metric", metric,
                              "-o", "ops/"],
                     "check": "digest", "writes": f"ops/{stem}.json",
                     "key": f"zoo:{stem}"})
    for stem in ("box_weyl_e5", "weyl_e6", "einstein_m4"):
        cmds.append({"argv": ["adjoint", f"ops/{stem}.json"],
                     "check": "digest", "key": f"adjoint:{stem}"})
    cmds.append({"argv": ["adjoint", "ops/riemann_e6.json", "-o", "ops/riemann_adj.json"],
                 "check": "digest", "writes": "ops/riemann_adj.json",
                 "key": "adjoint:riemann_e6"})
    cmds.append({"argv": ["compose", "ops/riemann_adj.json", "ops/riemann_e6.json"],
                 "check": "digest", "key": "compose:riemann_adj:riemann_e6"})
    # the curvature of a Killing deformation vanishes
    cmds.append({"argv": ["compose", "ops/riemann_e6.json", "ops/killing_e6.json"],
                 "check": "zero", "key": "compose:riemann_e6:killing_e6"})
    for k in range(4):
        nvars = shape.choice((2, 3))
        mat = random_matrix(shape, coef, nvars, shape.randint(1, 2), 2, max_exp=8,
                            factors=2, constant=shape.random() < 0.5)
        name = f"pow{k}"
        docs[f"docs/{name}.json"] = operator_doc(name, nvars, mat)
        plans[name] = (nvars, mat)
        cmds.append({"argv": ["adjoint", f"docs/{name}.json", "-o", f"docs/{name}_adj.json"],
                     "check": "adjoint", "doc": name, "writes": f"docs/{name}_adj.json"})
        cmds.append({"argv": ["adjoint", f"docs/{name}_adj.json"],
                     "check": "same", "doc": name})
    for k in range(2):
        nvars = shape.choice((2, 3))
        mat = random_matrix(shape, coef, nvars, 3, 2, max_exp=1, factors=2,
                            constant=shape.random() < 0.5, zero_share=0.2)
        name = f"sys{k}"
        docs[f"docs/{name}.json"] = operator_doc(name, nvars, mat)
        plans[name] = (nvars, mat)
        cmds.append({"argv": ["cc", f"docs/{name}.json", "-o", f"docs/{name}_cc.json"],
                     "check": "nonzero", "writes": f"docs/{name}_cc.json"})
        cmds.append({"argv": ["compose", f"docs/{name}_cc.json", f"docs/{name}.json"],
                     "check": "zero"})
    return {"docs": docs, "plans": plans, "commands": cmds,
            "points": {name: [random_point(coef, nv) for _ in range(2)]
                       for name, (nv, _) in plans.items()}}


# -- session workload plan -----------------------------------------------------------

# Small and medium zoo operators: (pool name, zoo.build name, n, metric).
SESSION_ZOO = [
    ("div3", "div", 3, "euclidean"),
    ("grad3", "grad", 3, "euclidean"),
    ("curl", "curl", None, "euclidean"),
    ("killing_e2", "killing", 2, "euclidean"),
    ("killing_e3", "killing", 3, "euclidean"),
    ("cauchy_e2", "cauchy", 2, "euclidean"),
    ("dalembertian_m2", "dalembertian", 2, "minkowski"),
    ("cosserat_equilibrium", "cosserat_equilibrium", None, "euclidean"),
    ("lame2", "lame", 2, "euclidean"),
    ("hooke2d", "hooke2d", None, "euclidean"),
    ("killing_m4", "killing", 4, "minkowski"),
    ("killing_e4", "killing", 4, "euclidean"),
    ("conformal_e4", "conformal_killing", 4, "euclidean"),
    ("weyl_killing_e3", "weyl_killing", 3, "euclidean"),
]

# Query kinds with their fixed share of one pass; every seed gets exactly
# these counts, only the coefficients change.  The shares, like the Zipf
# exponent and the number of random operators below, are an assumption:
# dgcalc has no usage log to take a traffic mix from.
SESSION_KINDS = {
    "cc": 40,
    "param_test": 24,
    "resolve": 32,
    "ext1": 16,
    "ext2": 12,
    "rank": 32,
    "factor": 24,
}

RANDOM_OPS = 16


def session_plan(seed: int) -> dict:
    """Operator pool and the query stream of one session-mix pass.

    The pool holds the zoo operators above and RANDOM_OPS random operators
    in two or three variables; half of the random ones carry zeroth-order
    terms, which sends minimization down its non-homogeneous path.  Each
    query draws its operator with Zipf-like weights over the pool, so some
    queries repeat and hit the engine's caches while others compute from
    scratch.  Which operator each query gets, and the order of the queries,
    are fixed, so every seed has the same queries hit the caches; the seed
    draws the coefficients of the random operators and left factors.
    """
    shape, coef = Random("session-mix:shape"), Random(f"session-mix:{seed}")
    randoms = {}
    for k in range(RANDOM_OPS):
        nvars = shape.choice((2, 2, 3))
        rows = shape.randint(1, 3)
        cols = shape.randint(1, 2) if rows == 1 else shape.randint(1, 3)
        mat = random_matrix(shape, coef, nvars, rows, cols, max_exp=1, factors=2,
                            constant=(k % 2 == 1))
        randoms[f"rand{k}"] = operator_doc(f"rand{k}", nvars, mat)
    names = [z[0] for z in SESSION_ZOO] + sorted(randoms)
    shape.shuffle(names)
    weights = [1.0 / (r + 1) ** 1.1 for r in range(len(names))]
    queries = []
    for kind, count in SESSION_KINDS.items():
        for _ in range(count):
            q = {"kind": kind, "op": shape.choices(names, weights)[0]}
            if kind == "factor":
                # [shape key, coefficient key]; zoo queries stay seed-independent
                # so that their digests can be recorded
                k = str(len(queries))
                q["left"] = [q["op"]] * 2 if q["op"] not in randoms else [k, f"{seed}:{k}"]
            queries.append(q)
    shape.shuffle(queries)
    return {"zoo": SESSION_ZOO, "random": randoms, "queries": queries}


def left_factor_doc(shape_key: str, coef_key: str, nvars: int, rows_out: int,
                    cols: int) -> dict:
    """A random left factor Q for factor_through(compose(Q, B), B)."""
    mat = random_matrix(Random(f"left:{shape_key}"), Random(f"left:{coef_key}"),
                        nvars, rows_out, cols, max_exp=1, factors=1,
                        constant=True, zero_share=0.4)
    return operator_doc("left", nvars, mat)


def kind_mix(plan: dict) -> dict:
    """Queries per kind in a plan; the same for every seed by construction."""
    out: dict[str, int] = {}
    for q in plan["queries"]:
        out[q["kind"]] = out.get(q["kind"], 0) + 1
    return dict(sorted(out.items()))
