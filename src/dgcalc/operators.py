"""Linear constant-coefficient differential operators between bundles.

An operator acts on column vectors of unknown functions through a matrix
over D = Q[d1..dn], and it is held as the rows of that matrix: row i, the
`FreeElem` in D^(1 x m) that gives the i-th component of the output, is
what the engine computes with, and every operation reads and writes rows.
`matrix`, the same entries as Polys, is a read-only view built on first
read; the text edge writes cells from the rows.  Bundles carry a
positive rational weight per component, used as the symmetrization factor in
the pairing that defines the formal adjoint (off-diagonal components of a
symmetric tensor typically get weight 2).  An integer weight is held as an
int and any other as a Fraction, so documents with integer weights load
without `fractions`.

Names on operators and bundles are labels for files and reports only;
equality compares structure (nvars, component labels and weights, rows).
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .engine import (
    FreeElem,
    _budget,
    _dot,
    _minimal_relations,
    _same_module,
    _tracked,
    _transpose_rows,
    cell_rows,
)
from .poly import ParseError, Poly, _digit_limit, parse

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
    """An operator from source sections to target sections, held as its
    rows: row i is the `FreeElem` of width source.dim that gives target
    component i.  `matrix`, the entries as Polys with rows indexed by
    target components and columns by source components, is a read-only
    view built on first read.

    `LinDiffOp(name, nvars, source, target, matrix)` checks a matrix of
    Polys against the bundles and nvars, builds the rows once and keeps the
    cells as the view.  Everything that builds shapes that are right by
    construction (`compose`, `adjoint`, `cc`, `scale`, `with_name`,
    `factor_through`, the loader and the zoo's integer builders) hands its
    rows to the trusted `_make` instead.

    `_adjoint` holds the operator's formal adjoint once `adjoint` has built
    it, so later calls return that same operator, and is False on that
    kept adjoint, which keeps none.  The link runs forward only: the kept
    adjoint does not point back, and a `with_name` copy starts without
    one."""

    __slots__ = ("name", "nvars", "source", "target", "_rows", "_matrix", "_hash", "_adjoint")

    def __init__(
        self,
        name: str,
        nvars: int,
        source: Bundle,
        target: Bundle,
        matrix: Sequence[Sequence[Poly]],
    ):
        mat = tuple(tuple(row) for row in matrix)
        _check_shape(name, source, target, [len(row) for row in mat])
        for row in mat:
            for p in row:
                if p.nvars != nvars:
                    raise ShapeMismatch(f"{name}: entry nvars {p.nvars} != {nvars}")
        self.name = name
        self.nvars = nvars
        self.source = source
        self.target = target
        self._rows: tuple[FreeElem, ...] = tuple(FreeElem(row) for row in mat)
        self._matrix: tuple[tuple[Poly, ...], ...] | None = mat
        self._hash: int | None = None
        self._adjoint: LinDiffOp | bool | None = None

    @classmethod
    def _make(
        cls,
        name: str,
        nvars: int,
        source: Bundle,
        target: Bundle,
        rows: tuple[FreeElem, ...],
    ) -> "LinDiffOp":
        """Trusted constructor.  The caller guarantees that `rows` is a
        tuple of target.dim FreeElems of width source.dim in nvars
        variables."""
        op = object.__new__(cls)
        op.name = name
        op.nvars = nvars
        op.source = source
        op.target = target
        op._rows = rows
        op._matrix = None
        op._hash = None
        op._adjoint = None
        return op

    # -- structure -----------------------------------------------------------

    @property
    def matrix(self) -> tuple[tuple[Poly, ...], ...]:
        """The entries as Polys, one tuple per row: a view of the rows,
        built on first read and cached, in which equal cells share one
        Poly."""
        if self._matrix is None:
            share = {}.setdefault
            self._matrix = tuple(
                tuple(share(p, p) for p in r.entries) for r in self._rows
            )
        return self._matrix

    def rows(self) -> list[FreeElem]:
        """The rows as module elements; each call returns a fresh list."""
        return list(self._rows)

    def columns(self) -> list[FreeElem]:
        return _transpose_rows(self._rows)

    def order(self) -> int:
        return max(r.degree() for r in self._rows)

    def row_degrees(self) -> tuple[int, ...]:
        return tuple(r.degree() for r in self._rows)

    def is_zero(self) -> bool:
        return not any(r.terms for r in self._rows)

    def with_name(self, name: str) -> "LinDiffOp":
        op = LinDiffOp._make(name, self.nvars, self.source, self.target, self._rows)
        op._matrix = self._matrix
        op._hash = self._hash
        return op

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinDiffOp):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.source == other.source
            and self.target == other.target
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.source, self.target, self._rows))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"LinDiffOp({self.name!r}, {self.target.dim}x{self.source.dim}, "
            f"nvars={self.nvars}, order={self.order()})"
        )

    def entry_strs(self) -> list[list[str]]:
        """Each entry's canonical text, as `serialize` gives it, written
        from the rows; the monomials' keys and texts are made once for the
        whole operator, and a number too long to write is named as the
        document's cell matrix[i][j]."""
        return cell_rows(self._rows, "matrix[{i}][{j}]")


def _check_shape(name: str, source: Bundle, target: Bundle, widths: Sequence[int]) -> None:
    """Raise ShapeMismatch unless there is one row per target component and
    each row's width is source.dim."""
    if len(widths) != target.dim:
        raise ShapeMismatch(
            f"{name}: {len(widths)} rows but target has {target.dim} components"
        )
    width = source.dim
    for w in widths:
        if w != width:
            raise ShapeMismatch(
                f"{name}: row width {w} but source has {width} components"
            )


# -- algebra -------------------------------------------------------------------


def compose(a: LinDiffOp, b: LinDiffOp) -> LinDiffOp:
    """a after b.  Constant coefficients make this the matrix product: row
    i of the result is row i of `a` dotted with the rows of `b`."""
    if a.nvars != b.nvars:
        raise ShapeMismatch("compose: operators over different variable counts")
    if a.source.dim != b.target.dim:
        raise ShapeMismatch(
            f"compose: {a.name} expects {a.source.dim} components, "
            f"{b.name} produces {b.target.dim}"
        )
    brows = b._rows
    rows = tuple(_dot(r, brows) for r in a._rows)
    return LinDiffOp._make(f"compose({a.name},{b.name})", a.nvars, b.source, a.target, rows)


def scale(a: LinDiffOp, c) -> LinDiffOp:
    """a times the rational number c."""
    if type(c) is not int:
        from fractions import Fraction

        c = Fraction(c)
    return _times(a, c.numerator, c.denominator, f"scale({a.name},{c})")


def _times(a: LinDiffOp, num: int, den: int, name: str) -> LinDiffOp:
    """a times num / den, for den > 0, named `name`."""
    w, n = a.source.dim, a.nvars
    if num:
        rows = tuple(FreeElem._make(w, n, r.terms, num, den * r.den) for r in a._rows)
    else:
        rows = tuple(FreeElem._make(w, n, {}) for _ in a._rows)
    return LinDiffOp._make(name, n, a.source, a.target, rows)


def adjoint(a: LinDiffOp) -> LinDiffOp:
    """Formal adjoint for the weighted L2 pairing: transpose the matrix,
    flip the sign of every d, and move the weights across.  Involutive, as
    an equality: the adjoint of the adjoint equals `a` but is a new
    operator, named adjoint(adjoint(...)).

    Built on the first call and kept with `a`, so every later call returns
    the same operator; it depends on nothing but `a`, so no budget and no
    cache can make it stale, and `clear_caches` leaves it alone.  A kept
    adjoint keeps none of its own: that would be a second operator equal
    to `a`, which the caller already holds, so it is built on each call."""
    kept = a._adjoint
    if kept is None:
        kept = a._adjoint = _adjoint(a)
        kept._adjoint = False
    elif kept is False:
        return _adjoint(a)
    return kept


def _adjoint(a: LinDiffOp) -> LinDiffOp:
    """Row j of the adjoint is column j of `a`: term (i, m) of a's row i
    times (-1)^|m| t_i / s_j, for target weights t and source weights s.
    Each row i times t_i is brought to one common denominator in ints, and
    each result row is made once."""
    rows, tws = a._rows, a.target.weights
    lcd = math.lcm(*(r.den * t.denominator for r, t in zip(rows, tws)))
    cols: list[dict] = [{} for _ in range(a.source.dim)]
    for i, (r, t) in enumerate(zip(rows, tws)):
        g = t.numerator * (lcd // (r.den * t.denominator))
        for (j, m), c in r.terms.items():
            cols[j][(i, m)] = -c * g if sum(m) & 1 else c * g
    width, n = a.target.dim, a.nvars
    out = tuple(
        FreeElem._make(width, n, col, s.denominator, lcd * s.numerator)
        for col, s in zip(cols, a.source.weights)
    )
    return LinDiffOp._make(f"adjoint({a.name})", n, a.target, a.source, out)


def is_self_adjoint(a: LinDiffOp) -> bool:
    return adjoint(a) == a


def cc(a: LinDiffOp) -> LinDiffOp:
    """Compatibility conditions: a minimal generating set for the relations
    among the rows of `a`, packaged as an operator on a's target.

    The operator is built on the first call and kept with the Buchberger
    run of a's rows, which it reads its rows from, under what else it
    reads: a's name and its target with its name, labels and weights.  A
    later call with the same reads returns that same operator; an error
    is not kept, and the run's memo is keyed on the budget."""
    budget = _budget()
    kept = _tracked(a._rows, budget).reports
    key = ("cc", a.name, a.target.name, a.target)
    op = kept.get(key)
    if op is None:
        # the relations are the rows; with none, the zero row on a
        # one-dimensional dummy target
        rows = _minimal_relations(a._rows, budget) or (
            FreeElem._make(a.target.dim, a.nvars, {}),
        )
        tgt = Bundle.simple(f"cc[{a.target.name}]", len(rows))
        op = kept[key] = LinDiffOp._make(f"cc({a.name})", a.nvars, a.target, tgt, rows)
    return op


def factor_through(a: LinDiffOp, b: LinDiffOp) -> LinDiffOp:
    """Find Q with a == compose(Q, b), i.e. divide each row of `a` by the
    rows of `b`.  Raises NotFactorable when a row leaves the row module.

    Q is built on the first call and kept with the Buchberger run of b's
    rows, which every division reads, under what else it reads: a's rows
    and name, b's name, and both targets with their names, labels and
    weights.  A later call with the same reads returns that same operator
    without dividing; the shape checks still come first, an error is not
    kept, and the run's memo is keyed on the budget."""
    from .engine import divide_with_cofactors

    if a.nvars != b.nvars:
        raise ShapeMismatch("factor: operators over different variable counts")
    if a.source.dim != b.source.dim:
        raise ShapeMismatch(
            f"factor: {a.name} has source dim {a.source.dim}, "
            f"{b.name} has {b.source.dim}"
        )
    brows = b._rows
    kept = _tracked(brows, _budget()).reports
    # a Bundle compares without its name, so the names are read apart
    key = ("factor", a._rows, a.name, b.name, a.target.name, a.target,
           b.target.name, b.target)
    op = kept.get(key)
    if op is not None:
        return op
    # each quotient comes back as a row of width len(brows), the row of Q;
    # with the remainder zero, the division's own identity check is
    # q.dot(brows) == row, so no product is taken here
    qrows = []
    for i, row in enumerate(a._rows):
        # the public call, not its core: no other path of the package
        # divides, and perfbench's tracer times the division layer here
        q, rem = divide_with_cofactors(row, brows)
        if not rem.is_zero():
            raise NotFactorable(i, rem)
        qrows.append(q)
    op = kept[key] = LinDiffOp._make(
        f"factor({a.name},{b.name})", a.nvars, b.target, a.target, tuple(qrows)
    )
    return op


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
    return _same_module(tuple(a.columns()), tuple(b.columns()), _budget())


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


def _document_field(d, key: str, what: str):
    """The field `key` of `what`, which must be a JSON object that has it."""
    if not isinstance(d, dict):
        raise OpFormatError(f"{what} is not a JSON object")
    if key not in d:
        raise OpFormatError(f"{what} has no {key}")
    return d[key]


def _document_weight(w) -> int | Fraction:
    # a JSON float is no exact weight, and true/false (an int subclass) no
    # weight at all
    if isinstance(w, str):
        if w.isascii() and w.isdigit():
            return int(w)
        from fractions import Fraction

        try:
            return Fraction(w)
        except (ValueError, ZeroDivisionError):
            raise OpFormatError(f"weight {w!r} is not a rational number") from None
    if isinstance(w, int) and not isinstance(w, bool):
        return w
    raise OpFormatError(f"weight {w!r} is not a string or an integer")


def bundle_from_dict(d: dict, what: str = "bundle") -> Bundle:
    """The bundle that the document `d` writes; `what` names it in the
    messages of the OpFormatError that a malformed document raises."""
    try:
        comps = _document_field(d, "components", what)
        if not isinstance(comps, list):
            raise OpFormatError(f"{what} components {comps!r} is not a list")
        pairs = []
        for i, c in enumerate(comps):
            at = f"{what} component {i}"
            pairs.append((_document_str(_document_field(c, "label", at), "label"),
                          _document_weight(_document_field(c, "weight", at))))
        return Bundle(_document_str(d.get("name", "bundle"), "bundle name"), pairs)
    except ValueError as exc:
        raise OpFormatError(f"bad bundle: {exc}") from exc


def operator_to_dict(a: LinDiffOp) -> dict:
    return {
        "name": a.name,
        "nvars": a.nvars,
        "source": bundle_to_dict(a.source),
        "target": bundle_to_dict(a.target),
        "matrix": a.entry_strs(),
    }


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
    source = bundle_from_dict(d["source"], "source")
    target = bundle_from_dict(d["target"], "target")
    mat = d["matrix"]
    if not isinstance(mat, list) or not all(isinstance(r, list) for r in mat):
        raise OpFormatError("matrix must be a list of rows")
    name = _document_str(d.get("name", "operator"), "name")
    # documents repeat few distinct texts, so each is parsed once; its terms
    # are written straight into the row, over the row's common denominator
    parsed: dict[str, Poly] = {}
    rows = []
    for i, row in enumerate(mat):
        cells = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise OpFormatError(f"matrix[{i}][{j}] is not a string")
            p = parsed.get(cell)
            if p is None:
                try:
                    p = parsed[cell] = parse(cell, nvars)
                except ParseError as exc:
                    raise OpFormatError(f"matrix[{i}][{j}]: {exc}") from exc
            cells.append(p)
        den = math.lcm(*[p.den for p in cells])
        terms = {(j, m): c * (den // p.den)
                 for j, p in enumerate(cells) for m, c in p.nums.items()}
        rows.append(FreeElem._make(len(cells), nvars, terms, 1, den))
    try:
        _check_shape(name, source, target, [r.width for r in rows])
    except ShapeMismatch as exc:
        raise OpFormatError(str(exc)) from exc
    return LinDiffOp._make(name, nvars, source, target, tuple(rows))


def operator_json(a: LinDiffOp) -> str:
    return json_text(operator_to_dict(a))


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


def save_operator(a: LinDiffOp, path) -> None:
    Path(path).write_text(operator_json(a))


def load_operator(path) -> LinDiffOp:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OpFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise OpFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep
        raise OpFormatError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        # the other ValueError: an integer too long to convert
        raise OpFormatError(
            f"{path}: invalid JSON: a number exceeds the limit of {_digit_limit()} digits"
        ) from exc
    return operator_from_dict(doc)
