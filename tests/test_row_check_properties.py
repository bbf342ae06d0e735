"""The row check of the public engine calls, `engine._as_elems`, against a
copy of the implementation it replaced, which converted every row and then
compared the shapes in a second loop.  Drawn row lists mix FreeElems,
instances of a FreeElem subclass and rows given as tuples or lists of
Polys, of varying width and nvars, some of them mixing nvars inside one
row; both implementations must give equal tuples, holding each FreeElem
row as the object handed in, or raise the same error."""

from hypothesis import given, strategies as st

from dgcalc.engine import FreeElem, _as_elems
from dgcalc.poly import Poly


def reference_as_elems(rows):
    """The row check as it was: every row converted, then one loop over
    the shapes."""
    out = tuple(r if isinstance(r, FreeElem) else FreeElem(r) for r in rows)
    if not out:
        raise ValueError("empty generator list: width is undetermined")
    w, nv = out[0].width, out[0].nvars
    for e in out:
        if e.width != w:
            raise ValueError("generators of mixed width")
        if e.nvars != nv:
            raise ValueError("generators of mixed nvars")
    return out


class Row(FreeElem):
    __slots__ = ()


@st.composite
def polys(draw, nvars):
    monos = st.tuples(*[st.integers(0, 2)] * nvars)
    return Poly(nvars, draw(st.dictionaries(monos, st.integers(-3, 3).filter(bool),
                                            max_size=3)))


@st.composite
def row_lists(draw):
    """0 to 5 rows, each a FreeElem, a Row, or a tuple or list of Polys.
    Most rows share one width (1 to 3) and nvars (1 to 3); now and then a
    row takes its own, a Poly row may have width 0, and a Poly row's last
    entry may be over another variable count."""
    width, nvars = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    out = []
    for _ in range(draw(st.integers(0, 5))):
        form = draw(st.sampled_from(["elem", "subclass", "tuple", "list"]))
        w, nv = width, nvars
        if draw(st.integers(0, 3)) == 0:
            w = draw(st.integers(0 if form in ("tuple", "list") else 1, 3))
            nv = draw(st.integers(1, 3))
        entries = [draw(polys(nv)) for _ in range(w)]
        if w > 1 and form in ("tuple", "list") and draw(st.integers(0, 5)) == 0:
            entries[-1] = draw(polys(nv % 3 + 1))
        if form == "elem":
            out.append(FreeElem(entries))
        elif form == "subclass":
            out.append(Row(entries))
        else:
            out.append(tuple(entries) if form == "tuple" else entries)
    return out


def outcome(check, given_rows):
    try:
        out = check(given_rows)
    except ValueError as exc:
        return "error", str(exc)
    held = [e is r for e, r in zip(out, given_rows) if isinstance(r, FreeElem)]
    return "rows", type(out), out, all(held)


@given(row_lists())
def test_the_row_check_agrees_with_the_two_pass_check(given_rows):
    expected = outcome(reference_as_elems, given_rows)
    assert outcome(_as_elems, given_rows) == expected
    assert outcome(_as_elems, tuple(given_rows)) == expected
