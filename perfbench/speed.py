"""The speed probe: a fixed piece of pure-Python work whose CPU time tells
how fast the machine runs Python at that moment.

On a shared host the CPU time of the same work moves by up to 1.8x, in
spells of seconds, as other tenants load the physical cores.  The probe
runs just before and just after each timed operation, outside its timing,
in the process doing the work (in the parent for cli-docs, whose
operations are separate processes on the same pinned CPU), and run.py
scales each operation's CPU time by NOMINAL / (the mean of the two probes
around it): a spell that slows the operation slows the probes with it and
cancels out.

The probe does what dgcalc's exact arithmetic does most, multiplying
large integers and dividing out a gcd, over lists made once at import.
It makes no object the garbage collector tracks, so it neither triggers
a collection of dgcalc's heap nor depends on its size.
"""

from __future__ import annotations

from math import gcd
from time import process_time

_A = [(i * 7919 + 13) ** 3 for i in range(32)]
_B = [(j * 104729 + 7) ** 2 for j in range(32)]
_ZERO = [0] * 64
_OUT = list(_ZERO)
# About the median CPU seconds of one probe between operations on the
# 2-vCPU x86 VM (Python 3.11) that PASS_COST in run.py was set on; scaled
# times are CPU seconds on that machine in a typical spell.
NOMINAL = 0.00065


def probe() -> float:
    """Run the probe once and return its CPU time in seconds."""
    t0 = process_time()
    out = _OUT
    out[:] = _ZERO
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            v = a * b
            out[i + j] += v // gcd(v, 720720)
    return process_time() - t0
