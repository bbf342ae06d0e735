"""Linear constant-coefficient differential operators between bundles.

An operator is a matrix over Q[d1..dn] acting on column vectors of unknown
functions; row i gives the i-th component of the output.  Bundles carry a
positive rational weight per component, used as the symmetrization factor in
the pairing that defines the formal adjoint (off-diagonal components of a
symmetric tensor typically get weight 2).  An integer weight is held as an
int and any other as a Fraction, so documents with integer weights load
without `fractions`.

Names on operators and bundles are labels for files and reports only;
equality compares structure (nvars, component labels and weights, matrix).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .engine import FreeElem, minimize_generators, module_equal, syzygies
from .poly import ParseError, Poly, format_terms, parse, sum_of_products

if TYPE_CHECKING:
    from fractions import Fraction


class ShapeMismatch(ValueError):
    """Operator composition or comparison with incompatible shapes."""


class NotFactorable(ValueError):
    """Left factorization failed; carries the first offending row."""

    def __init__(self, row_index: int, remainder: FreeElem):
        super().__init__(
            f"row {row_index} does not lie in the row module of the divisor; "
            f"remainder {remainder}"
        )
        self.row_index = row_index
        self.remainder = remainder


class OpFormatError(ValueError):
    """Malformed operator file or dict."""


# Documents name at most this many variables, far above every zoo operator;
# each monomial is an exponent tuple of length nvars, so an unbounded count
# would make every term cost memory and time in proportion to it.
MAX_NVARS = 64


def _weights(ws: list) -> list[int | Fraction]:
    """Each weight as an int when it is an integer, else as a Fraction; the
    int has the same ==, hash and str as the Fraction it stands for."""
    if all(type(w) is int for w in ws):
        return ws
    from fractions import Fraction

    out = []
    for w in ws:
        if type(w) is not int:
            w = w if isinstance(w, Fraction) else Fraction(w)
            if w.denominator == 1:
                w = w.numerator
        out.append(w)
    return out


class Bundle:
    """A named list of components with positive rational weights.

    Two bundles are equal when their component labels and weights agree;
    the name is carried along but never compared, so an operator and its
    double adjoint come out identical.
    """

    __slots__ = ("name", "labels", "weights")

    def __init__(self, name: str, components: Iterable[tuple[str, int | Fraction]]):
        comps = [(str(lbl), w) for lbl, w in components]
        labels = [lbl for lbl, _ in comps]
        weights = _weights([w for _, w in comps])
        if not comps:
            raise ValueError("bundle needs at least one component")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate component labels in bundle {name!r}")
        for lbl, w in zip(labels, weights):
            if w <= 0:
                raise ValueError(f"component {lbl!r} has non-positive weight {w}")
        self.name = name
        self.labels = tuple(labels)
        self.weights = tuple(weights)

    @staticmethod
    def simple(name: str, dim: int) -> "Bundle":
        """Components labelled "1" to str(dim), each of weight 1."""
        if dim < 1:
            raise ValueError("bundle needs at least one component")
        b = object.__new__(Bundle)
        b.name = name
        b.labels = tuple(map(str, range(1, dim + 1)))
        b.weights = (1,) * dim
        return b

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def components(self) -> tuple[tuple[str, int | Fraction], ...]:
        return tuple(zip(self.labels, self.weights))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bundle):
            return NotImplemented
        return self.labels == other.labels and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.labels, self.weights))

    def __repr__(self) -> str:
        return f"Bundle({self.name!r}, dim={self.dim})"


class LinDiffOp:
    """Matrix of polynomials in d1..dn mapping source sections to target
    sections.  Rows are indexed by target components, columns by source.

    `LinDiffOp(...)` checks the matrix against the bundles and nvars.
    `compose`, `adjoint`, `cc` and `with_name` build shapes that are right
    by construction and go through the trusted `_make` instead; `cc` hands
    it the relations the rows are, and `with_name` the rows and hash it
    already has."""

    __slots__ = ("name", "nvars", "source", "target", "matrix", "_hash", "_rows")

    def __init__(
        self,
        name: str,
        nvars: int,
        source: Bundle,
        target: Bundle,
        matrix: Sequence[Sequence[Poly]],
    ):
        mat = tuple(tuple(row) for row in matrix)
        if len(mat) != target.dim:
            raise ShapeMismatch(
                f"{name}: {len(mat)} rows but target has {target.dim} components"
            )
        for row in mat:
            if len(row) != source.dim:
                raise ShapeMismatch(
                    f"{name}: row width {len(row)} but source has {source.dim} components"
                )
            for p in row:
                if p.nvars != nvars:
                    raise ShapeMismatch(f"{name}: entry nvars {p.nvars} != {nvars}")
        self.name = name
        self.nvars = nvars
        self.source = source
        self.target = target
        self.matrix = mat
        self._hash: int | None = None
        self._rows: tuple[FreeElem, ...] | None = None

    @classmethod
    def _make(
        cls,
        name: str,
        nvars: int,
        source: Bundle,
        target: Bundle,
        matrix: tuple[tuple[Poly, ...], ...],
        rows: tuple[FreeElem, ...] | None = None,
    ) -> "LinDiffOp":
        """Trusted constructor.  The caller guarantees that `matrix` is a
        tuple of target.dim tuples of source.dim Polys in nvars variables,
        and that `rows`, when given, is `FreeElem(row)` for each row."""
        op = object.__new__(cls)
        op.name = name
        op.nvars = nvars
        op.source = source
        op.target = target
        op.matrix = matrix
        op._hash = None
        op._rows = rows
        return op

    # -- structure -----------------------------------------------------------

    def rows(self) -> list[FreeElem]:
        """The rows as module elements, built on first use and cached; each
        call returns a fresh list."""
        if self._rows is None:
            self._rows = tuple(FreeElem(row) for row in self.matrix)
        return list(self._rows)

    def columns(self) -> list[FreeElem]:
        return [FreeElem(row[j] for row in self.matrix) for j in range(self.source.dim)]

    def order(self) -> int:
        return max((p.degree() for row in self.matrix for p in row), default=-1)

    def row_degrees(self) -> tuple[int, ...]:
        return tuple(max(p.degree() for p in row) for row in self.matrix)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.matrix for p in row)

    def with_name(self, name: str) -> "LinDiffOp":
        op = LinDiffOp._make(
            name, self.nvars, self.source, self.target, self.matrix, self._rows
        )
        op._hash = self._hash
        return op

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinDiffOp):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.source, self.target, self.matrix))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"LinDiffOp({self.name!r}, {self.target.dim}x{self.source.dim}, "
            f"nvars={self.nvars}, order={self.order()})"
        )

    def entry_strs(self) -> list[list[str]]:
        """Each entry's canonical text, as `serialize` gives it; the
        monomials' keys and texts are made once for the whole matrix."""
        texts: dict = {}
        return [
            [format_terms(p.nums.items(), p.den, texts) if p.nums else "0" for p in row]
            for row in self.matrix
        ]


# -- algebra -------------------------------------------------------------------


def compose(a: LinDiffOp, b: LinDiffOp) -> LinDiffOp:
    """a after b.  Constant coefficients make this the matrix product."""
    if a.nvars != b.nvars:
        raise ShapeMismatch("compose: operators over different variable counts")
    if a.source.dim != b.target.dim:
        raise ShapeMismatch(
            f"compose: {a.name} expects {a.source.dim} components, "
            f"{b.name} produces {b.target.dim}"
        )
    n = a.nvars
    # each output entry is one sum of products over the k where both
    # factors are nonzero
    arows = [[(k, p) for k, p in enumerate(row) if p.nums] for row in a.matrix]
    bcols = list(zip(*b.matrix))
    rows = tuple(
        tuple(
            sum_of_products(n, [(x, bcol[k]) for k, x in arow if bcol[k].nums])
            for bcol in bcols
        )
        for arow in arows
    )
    return LinDiffOp._make(f"compose({a.name},{b.name})", n, b.source, a.target, rows)


def scale(a: LinDiffOp, c, name: str | None = None) -> LinDiffOp:
    from fractions import Fraction

    c = Fraction(c)
    rows = [[p * c for p in row] for row in a.matrix]
    return LinDiffOp(name or f"scale({a.name},{c})", a.nvars, a.source, a.target, rows)


def adjoint(a: LinDiffOp) -> LinDiffOp:
    """Formal adjoint for the weighted L2 pairing: transpose the matrix,
    flip the sign of every d, and move the weights across.  Involutive."""
    # the weight ratio t/s handed over as two positive ints
    sw = [(w.numerator, w.denominator) for w in a.source.weights]
    tw = [(w.numerator, w.denominator) for w in a.target.weights]
    zero = Poly.zero(a.nvars)
    rows = tuple(
        tuple(
            p.negate_vars(tn * sd, td * sn) if p.nums else zero
            for (tn, td), p in zip(tw, col)
        )
        for (sn, sd), col in zip(sw, zip(*a.matrix))
    )
    return LinDiffOp._make(f"adjoint({a.name})", a.nvars, a.target, a.source, rows)


def is_self_adjoint(a: LinDiffOp) -> bool:
    return adjoint(a) == a


def cc(a: LinDiffOp, *, name: str | None = None) -> LinDiffOp:
    """Compatibility conditions: a minimal generating set for the relations
    among the rows of `a`, packaged as an operator on a's target."""
    gens = tuple(minimize_generators(syzygies(a.rows())))
    name = name or f"cc({a.name})"
    if not gens:
        # no relations: the zero operator on a one-dimensional dummy target
        zero_row = ((Poly.zero(a.nvars),) * a.target.dim,)
        tgt = Bundle.simple(f"cc[{a.target.name}]", 1)
        return LinDiffOp._make(name, a.nvars, a.target, tgt, zero_row)
    tgt = Bundle.simple(f"cc[{a.target.name}]", len(gens))
    # each relation is canonical, so FreeElem(g.entries) == g: they are the rows
    return LinDiffOp._make(
        name, a.nvars, a.target, tgt, tuple(g.entries for g in gens), gens
    )


def factor_through(a: LinDiffOp, b: LinDiffOp) -> LinDiffOp:
    """Find Q with a == compose(Q, b), i.e. divide each row of `a` by the
    rows of `b`.  Raises NotFactorable when a row leaves the row module."""
    from .engine import divide_with_cofactors

    if a.nvars != b.nvars:
        raise ShapeMismatch("factor: operators over different variable counts")
    if a.source.dim != b.source.dim:
        raise ShapeMismatch(
            f"factor: {a.name} has source dim {a.source.dim}, "
            f"{b.name} has {b.source.dim}"
        )
    arows, brows = a.rows(), b.rows()
    qrows = []
    for i, row in enumerate(arows):
        q, rem = divide_with_cofactors(row, brows)
        if not rem.is_zero():
            raise NotFactorable(i, rem)
        qrows.append(list(q))
    # row by row through FreeElem.dot, a product computed apart from the
    # annihilation check inside divide_with_cofactors
    if any(FreeElem(q).dot(brows) != row for q, row in zip(qrows, arows)):
        raise RuntimeError("internal error: factorization identity failed")
    return LinDiffOp(
        f"factor({a.name},{b.name})", a.nvars, b.target, a.target, qrows
    )


def order_profile(a: LinDiffOp) -> tuple[int, ...]:
    """Sorted multiset of row orders."""
    return tuple(sorted(a.row_degrees()))


def symbol_at(a: LinDiffOp, covector: Sequence) -> list[list[Fraction]]:
    """Evaluate every entry at a rational covector (d_i -> xi_i)."""
    from fractions import Fraction

    xi = [Fraction(v) for v in covector]
    if len(xi) != a.nvars:
        raise ShapeMismatch(f"covector has {len(xi)} entries, expected {a.nvars}")
    return [[p.evaluate(xi) for p in row] for row in a.matrix]


def image_module_equal(a: LinDiffOp, b: LinDiffOp) -> bool:
    """Same image as maps into a common target: compare column modules."""
    if a.nvars != b.nvars or a.target.dim != b.target.dim:
        return False
    return module_equal(a.columns(), b.columns())


# -- serialization ---------------------------------------------------------------


def bundle_to_dict(b: Bundle) -> dict:
    return {
        "name": b.name,
        "components": [
            {"label": lbl, "weight": str(w)} for lbl, w in b.components
        ],
    }


def _document_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise OpFormatError(f"{what} {value!r} is not a string")
    return value


def _document_weight(w) -> int | Fraction:
    # a JSON float is no exact weight, and true/false (an int subclass) no
    # weight at all
    if isinstance(w, str):
        if w.isascii() and w.isdigit():
            return int(w)
        from fractions import Fraction

        return Fraction(w)
    if isinstance(w, int) and not isinstance(w, bool):
        return w
    raise OpFormatError(f"weight {w!r} is not a string or an integer")


def bundle_from_dict(d: dict) -> Bundle:
    try:
        comps = [
            (_document_str(c["label"], "label"), _document_weight(c["weight"]))
            for c in d["components"]
        ]
        return Bundle(_document_str(d.get("name", "bundle"), "bundle name"), comps)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise OpFormatError(f"bad bundle: {exc}") from exc


def operator_to_dict(a: LinDiffOp, provenance: str | None = None) -> dict:
    d = {
        "name": a.name,
        "nvars": a.nvars,
        "source": bundle_to_dict(a.source),
        "target": bundle_to_dict(a.target),
        "matrix": a.entry_strs(),
    }
    if provenance:
        d["provenance"] = provenance
    return d


def operator_from_dict(d: dict) -> LinDiffOp:
    if not isinstance(d, dict):
        raise OpFormatError("operator document must be a JSON object")
    for key in ("nvars", "source", "target", "matrix"):
        if key not in d:
            raise OpFormatError(f"missing field {key!r}")
    nvars = d["nvars"]
    # bool is an int subclass, but true/false is no variable count
    if isinstance(nvars, bool) or not isinstance(nvars, int) or not 1 <= nvars <= MAX_NVARS:
        raise OpFormatError(
            f"bad nvars: {nvars!r} (expected an integer from 1 to {MAX_NVARS})"
        )
    source = bundle_from_dict(d["source"])
    target = bundle_from_dict(d["target"])
    mat = d["matrix"]
    if not isinstance(mat, list) or not all(isinstance(r, list) for r in mat):
        raise OpFormatError("matrix must be a list of rows")
    name = _document_str(d.get("name", "operator"), "name")
    # documents repeat few distinct texts, so each is parsed once and equal
    # cells share one Poly; that is safe because no operation mutates a Poly
    parsed: dict[str, Poly] = {}
    rows = []
    for i, row in enumerate(mat):
        prow = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise OpFormatError(f"matrix[{i}][{j}] is not a string")
            p = parsed.get(cell)
            if p is None:
                try:
                    p = parsed[cell] = parse(cell, nvars)
                except ParseError as exc:
                    raise OpFormatError(f"matrix[{i}][{j}]: {exc}") from exc
            prow.append(p)
        rows.append(prow)
    try:
        return LinDiffOp(name, nvars, source, target, rows)
    except ShapeMismatch as exc:
        raise OpFormatError(str(exc)) from exc


def operator_json(a: LinDiffOp, provenance: str | None = None) -> str:
    return json_text(operator_to_dict(a, provenance))


def json_text(doc) -> str:
    """`json.dumps(doc, indent=2) + "\\n"` for a document of dicts with str
    keys, lists, strs, ints, bools and None; anything else raises
    TypeError.  json's indent-2 encoder runs in pure Python; here strings
    go through json's C encoder, and a list of strings, such as a matrix
    row, is one join."""
    out: list[str] = []
    _json_into(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_into(value, nl: str, out: list[str]) -> None:
    """Append the indent-2 text of `value` to `out`; `nl` is a newline and
    the indent of the line `value` starts on."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        try:
            texts = list(map(_json_str, value))
        except TypeError:
            texts = None
        if texts is not None:
            out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_into(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} is not a string")
            out.append(sep + _json_str(key) + ": ")
            _json_into(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_operator(a: LinDiffOp, path, provenance: str | None = None) -> None:
    Path(path).write_text(operator_json(a, provenance))


def load_operator(path) -> LinDiffOp:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OpFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OpFormatError(f"{path}: invalid JSON: {exc}") from exc
    return operator_from_dict(doc)
