"""The push-once reducer against the heap-and-done reduction it replaced:
every `_Reducer.reduce_full` call made while drawn rows are run, reduced
to their reduced basis (the calls with `keep`), divided and tested for
membership returns the same (remainder, num, den) as the reference below."""

import heapq
import math
from itertools import product
from unittest import mock

from hypothesis import given, strategies as st

from dgcalc import engine
from dgcalc.engine import FreeElem, _Reducer, divide_with_cofactors, reduced_groebner, syzygies
from dgcalc.poly import Poly


def _heap_and_done(red, h, keep=None):
    """Reduction with a heap that may hold a term many times and a `done`
    set of terms that no basis lead divides, or that are kept."""
    num = den = 1
    if not h:
        return h, num, den
    pack = red.pack
    flag, guard, pmask = pack.flag, pack.guard, pack.pmask
    heap = [-t for t in h if t >= flag]
    heapq.heapify(heap)
    done = set() if keep is None else {keep}
    steps = 0
    while heap:
        t = -heapq.heappop(heap)
        if t in done or t not in h:
            continue
        for idx in red.by_pos.get(t & pmask, ()):
            lt = red.lts[idx]
            if not (lt - t) & guard:
                break
        else:
            done.add(t)
            continue
        g = red.basis[idx]
        gam = math.gcd(g[lt], h[t])
        a, b = g[lt] // gam, h[t] // gam
        if a < 0:
            a, b = -a, -b
        if a != 1:
            num *= a
            for k in h:
                h[k] *= a
        shift = t - lt
        for k, gc in g.items():
            k += shift
            v = h.get(k)
            if v is None:
                h[k] = -b * gc
                if k >= flag:
                    heapq.heappush(heap, -k)
            else:
                v -= b * gc
                if v:
                    h[k] = v
                else:
                    del h[k]
        steps += 1
        if steps % 16 == 0 and h:
            g0 = math.gcd(*h.values())
            if g0 > 1:
                for k in h:
                    h[k] //= g0
                den *= g0
    g0 = math.gcd(num, den)
    return h, num // g0, den // g0


@st.composite
def operator_rows(draw):
    """Two to four rows of width one to three in two or three variables,
    with entries of degree up to 3, zeroth-order terms allowed."""
    nvars = draw(st.integers(2, 3))
    monos = [m for m in product(range(4), repeat=nvars) if sum(m) <= 3]
    width = draw(st.integers(1, 3))
    terms = st.dictionaries(st.sampled_from(monos), st.integers(-4, 4).filter(bool),
                            min_size=1, max_size=4)
    return [FreeElem(Poly(nvars, draw(terms)) for _ in range(width))
            for _ in range(draw(st.integers(2, 4)))]


@given(operator_rows())
def test_push_once_reduction_matches_heap_and_done(rows):
    reduce_full = _Reducer.reduce_full
    kept = []

    def compared(self, h, keep=None):
        want = _heap_and_done(self, dict(h), keep)
        got = reduce_full(self, h, keep)
        assert got == want
        kept.append(keep is not None)
        return got

    engine.clear_caches()
    elem = FreeElem(p * p + Poly.const(p.nvars, 5) for p in rows[-1].entries)
    with mock.patch.object(_Reducer, "reduce_full", compared):
        gb = reduced_groebner(rows)
        syzygies(rows)
        divide_with_cofactors(elem, rows)
        gb.contains(elem)
    # the reduced basis reduced each survivor's tail with its lead kept
    assert any(kept) and not all(kept)
