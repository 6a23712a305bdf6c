import random
import signal
from contextlib import contextmanager

import pytest

from eccnoc.curves import INFINITY, AffinePoint, _add_affine_raw, is_on_curve
from eccnoc.errors import OracleBoundExceeded
from eccnoc.fields import ff_inv, ff_sqr
from eccnoc.presets import PRESETS

_POINT_SCAN_BOUND = 1 << 16


@pytest.fixture
def p17():
    return PRESETS["p17"]


@pytest.fixture
def b4():
    return PRESETS["b4"]


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def check_field_axioms(spec, triples):
    """The field axioms on every (a, b, c): commutativity, associativity,
    distributivity, both identities, the additive inverse, squaring as a
    product, and the multiplicative inverse of a nonzero a."""
    zero, one = spec.zero, spec.one
    for a, b, c in triples:
        assert (a + b) == (b + a)
        assert (a * b) == (b * a)
        assert ((a + b) + c) == (a + (b + c))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * (b + c)) == (a * b + a * c)
        assert (a + zero) == a and (a * one) == a
        assert (a + (-a)).value == 0
        assert ff_sqr(a) == a * a
        if a.value:
            assert (a * ff_inv(a)) == one


# desk-scale enumeration oracles for the toy curves

def enumerate_points(curve):
    """All points including infinity, by scanning every (x, y) pair."""
    pts = [INFINITY]
    for x in curve.field.elements():
        for y in curve.field.elements():
            P = AffinePoint(x, y)
            if is_on_curve(curve, P):
                pts.append(P)
    return pts


def point_order(curve, P):
    """Additive order of P by repeated addition (bounded)."""
    if P.is_infinity:
        return 1
    acc = P
    n = 1
    while not acc.is_infinity:
        acc = _add_affine_raw(curve, acc, P)
        n += 1
        if n > _POINT_SCAN_BOUND:
            raise OracleBoundExceeded(
                f"point order exceeds the scan bound {_POINT_SCAN_BOUND}")
    return n


@contextmanager
def deadline(seconds: float):
    """Fail the test, rather than hang it, if the body runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
