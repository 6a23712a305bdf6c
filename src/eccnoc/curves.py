"""Elliptic-curve group law in affine and projective coordinates.

Two curve shapes are supported, keyed by the field kind:

  GF(p):   y^2 = x^3 + a*x + b          (nonsingular: 4a^3 + 27b^2 != 0)
  GF(2^m): y^2 + x*y = x^3 + a*x^2 + b  (nonsingular: b != 0)

Projective work uses Jacobian coordinates over GF(p) (x = X/Z^2,
y = Y/Z^3) and Lopez-Dahab coordinates over GF(2^m) (x = X/Z, y = Y/Z^2).
Z = 0 encodes the point at infinity; its canonical triple is (1, 1, 0).

The projective kernels are written against the op recorder of
`scalarmul` (the tape): their values are tape indices, and each add,
sub, mul, sqr and inv is computed and recorded there, so one run of the
formulas yields the point, its op counts and its task graph alike.  A
kernel takes the tape and the accumulator's X, Y and Z, and asks the
tape for every other input by its label alone: the affine addend `Px`
and `Py`, the coefficients `a` and `b`, and the constants `one` and
`zero`, whose raw values `_run_table` gives, one table per run.
`_KERNELS` holds each field kind's kernels by the audit column they
count under (`point_double`, `point_add`, `convert`), and
`_COORDINATES` the name of its coordinate system.  `scalarmul` names
each loop step by its columns and compiles it, once per field kind,
into a straight-line function of the general path of those columns'
kernels, traced from them.  A loop step runs that function; when a
zero test of the general path fails, the function records nothing and
the step is recorded by its columns' kernels instead.  The public
projective functions below run one column's kernel on a fresh tape,
with the point's coordinates as the inputs `X`, `Y` and `Z`.  A
`ProjectivePoint` is a bare (X, Y, Z): its coordinate system is the
curve's, which the field kind fixes, so only the field is checked.
Doubling is branch-free: the formulas send Z to 0 exactly when the true
result is infinity.  Mixed addition branches on concrete zero tests
(infinity input, equal or inverse points); only the general path is
the measured steady state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BadValue, FieldMismatch, NotOnCurve
from .fields import (FieldElement, FieldKind, FieldSpec, ff_add, ff_inv,
                     ff_mul, ff_neg, ff_sqr, ff_sub)


@dataclass(frozen=True)
class CurveParams:
    """A validated curve over a concrete field, optionally with a known
    base-point order attached for reference."""

    field: FieldSpec
    a: FieldElement
    b: FieldElement
    order: Optional[int] = None

    def __post_init__(self):
        if self.a.spec != self.field or self.b.spec != self.field:
            raise FieldMismatch("curve coefficients must live in the curve field")
        if self.field.kind is FieldKind.PRIME:
            a3 = ff_mul(ff_sqr(self.a), self.a)
            disc = ff_add(self.field.element(4) * a3,
                          self.field.element(27) * ff_sqr(self.b))
            if disc.is_zero():
                raise BadValue("singular curve: 4a^3 + 27b^2 = 0")
        else:
            if self.b.is_zero():
                raise BadValue("singular curve: b = 0")


@dataclass(frozen=True)
class AffinePoint:
    """An affine point; (None, None) is the point at infinity."""

    x: Optional[FieldElement]
    y: Optional[FieldElement]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x!r}, {self.y!r})"


INFINITY = AffinePoint(None, None)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point as (X, Y, Z) in its curve's coordinate system, which the
    field kind fixes: Jacobian over GF(p), Lopez-Dahab over GF(2^m);
    Z = 0 is infinity."""

    X: FieldElement
    Y: FieldElement
    Z: FieldElement

    @property
    def is_infinity(self) -> bool:
        return self.Z.is_zero()


# ---------------------------------------------------------------------------
# membership and affine group law

def _check_field(curve: CurveParams, P: AffinePoint) -> None:
    if P.is_infinity:
        return
    if P.x.spec != curve.field or P.y.spec != curve.field:
        raise FieldMismatch("point coordinates live outside the curve field")


def is_on_curve(curve: CurveParams, P: AffinePoint) -> bool:
    """Membership test; infinity belongs to every curve."""
    _check_field(curve, P)
    if P.is_infinity:
        return True
    # on the raw values: every element in sight lives in the curve field
    spec = curve.field
    add, mul, sqr = spec._add, spec._mul, spec._sqr
    x, y, a, b = P.x.value, P.y.value, curve.a.value, curve.b.value
    xx = sqr(x)
    if spec.kind is FieldKind.PRIME:
        return sqr(y) == add(add(mul(xx, x), mul(a, x)), b)
    return add(sqr(y), mul(x, y)) == add(add(mul(xx, x), mul(a, xx)), b)


def _require_on_curve(curve: CurveParams, P: AffinePoint) -> None:
    if not is_on_curve(curve, P):
        raise NotOnCurve(f"{P!r} does not satisfy the curve equation")


def point_neg(curve: CurveParams, P: AffinePoint) -> AffinePoint:
    _require_on_curve(curve, P)
    if P.is_infinity:
        return INFINITY
    if curve.field.kind is FieldKind.PRIME:
        return AffinePoint(P.x, ff_neg(P.y))
    return AffinePoint(P.x, ff_add(P.x, P.y))


def _add_affine_raw(curve: CurveParams, P: AffinePoint,
                    Q: AffinePoint) -> AffinePoint:
    """Group law without membership checks (both points assumed valid)."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if curve.field.kind is FieldKind.PRIME:
            inverse = Q.y == ff_neg(P.y)
        else:
            inverse = Q.y == ff_add(P.x, P.y)
        if inverse:
            return INFINITY
        return _double_affine_raw(curve, P)
    if curve.field.kind is FieldKind.PRIME:
        lam = ff_mul(ff_sub(Q.y, P.y), ff_inv(ff_sub(Q.x, P.x)))
        x3 = ff_sub(ff_sub(ff_sqr(lam), P.x), Q.x)
        y3 = ff_sub(ff_mul(lam, ff_sub(P.x, x3)), P.y)
    else:
        lam = ff_mul(ff_add(P.y, Q.y), ff_inv(ff_add(P.x, Q.x)))
        x3 = ff_add(ff_add(ff_add(ff_add(ff_sqr(lam), lam), P.x), Q.x), curve.a)
        y3 = ff_add(ff_add(ff_mul(lam, ff_add(P.x, x3)), x3), P.y)
    return AffinePoint(x3, y3)


def _double_affine_raw(curve: CurveParams, P: AffinePoint) -> AffinePoint:
    if P.is_infinity:
        return INFINITY
    if curve.field.kind is FieldKind.PRIME:
        if P.y.is_zero():
            return INFINITY
        three_x2 = ff_mul(curve.field.element(3), ff_sqr(P.x))
        lam = ff_mul(ff_add(three_x2, curve.a),
                     ff_inv(ff_mul(curve.field.element(2), P.y)))
        x3 = ff_sub(ff_sub(ff_sqr(lam), P.x), P.x)
        y3 = ff_sub(ff_mul(lam, ff_sub(P.x, x3)), P.y)
    else:
        if P.x.is_zero():
            return INFINITY
        lam = ff_add(P.x, ff_mul(P.y, ff_inv(P.x)))
        x3 = ff_add(ff_add(ff_sqr(lam), lam), curve.a)
        y3 = ff_add(ff_sqr(P.x), ff_mul(ff_add(lam, curve.field.one), x3))
    return AffinePoint(x3, y3)


def point_add_affine(curve: CurveParams, P: AffinePoint,
                     Q: AffinePoint) -> AffinePoint:
    _require_on_curve(curve, P)
    _require_on_curve(curve, Q)
    return _add_affine_raw(curve, P, Q)


def point_double_affine(curve: CurveParams, P: AffinePoint) -> AffinePoint:
    _require_on_curve(curve, P)
    return _double_affine_raw(curve, P)


# ---------------------------------------------------------------------------
# projective kernels, run on a tape (`ops`)

def _run_table(curve: CurveParams, q: AffinePoint) -> dict[str, int]:
    """A run's table: the raw value of each input a kernel asks for by
    label, the affine addend q (`Px`, `Py`; none when q is infinity),
    the curve's `a` and `b`, and the constants `one` and `zero`."""
    table = {"a": curve.a.value, "b": curve.b.value, "one": 1, "zero": 0}
    if not q.is_infinity:
        table.update(Px=q.x.value, Py=q.y.value)
    return table


def _inf_triple(ops):
    one = ops.input("one")
    return one, one, ops.input("zero")


def _embed_kernel(ops):
    """Lift the affine addend to projective without arithmetic."""
    return ops.input("Px"), ops.input("Py"), ops.input("one")


def _jac_double_kernel(ops, X1, Y1, Z1):
    """Jacobian doubling; branch-free, Z3 = 0 iff the result is infinity."""
    a = ops.input("a")
    xx = ops.sqr(X1)
    yy = ops.sqr(Y1)
    yyyy = ops.sqr(yy)
    zz = ops.sqr(Z1)
    t = ops.mul(X1, yy)
    s = ops.add(t, t)
    s = ops.add(s, s)                      # S = 4*X1*Y1^2
    zz2 = ops.sqr(zz)
    m = ops.add(ops.add(xx, xx), xx)
    m = ops.add(m, ops.mul(a, zz2))        # M = 3*X1^2 + a*Z1^4
    x3 = ops.sub(ops.sqr(m), ops.add(s, s))
    e = ops.add(yyyy, yyyy)
    e = ops.add(e, e)
    e = ops.add(e, e)                      # 8*Y1^4
    y3 = ops.sub(ops.mul(m, ops.sub(s, x3)), e)
    t2 = ops.mul(Y1, Z1)
    z3 = ops.add(t2, t2)                   # Z3 = 2*Y1*Z1
    return x3, y3, z3


def _jac_madd_kernel(ops, X1, Y1, Z1):
    """Jacobian mixed addition (projective + affine)."""
    if ops.is_zero(Z1):
        return _embed_kernel(ops)
    x2 = ops.input("Px")
    y2 = ops.input("Py")
    zz = ops.sqr(Z1)
    u2 = ops.mul(x2, zz)
    zzz = ops.mul(Z1, zz)
    s2 = ops.mul(y2, zzz)
    h = ops.sub(u2, X1)
    r = ops.sub(s2, Y1)
    if ops.is_zero(h):
        if ops.is_zero(r):
            return _jac_double_kernel(ops, X1, Y1, Z1)
        return _inf_triple(ops)
    hh = ops.sqr(h)
    hhh = ops.mul(h, hh)
    v = ops.mul(X1, hh)
    x3 = ops.sub(ops.sub(ops.sqr(r), hhh), ops.add(v, v))
    y3 = ops.sub(ops.mul(r, ops.sub(v, x3)), ops.mul(Y1, hhh))
    z3 = ops.mul(Z1, h)
    return x3, y3, z3


def _jac_to_affine_kernel(ops, X1, Y1, Z1):
    if ops.is_zero(Z1):
        return None
    zi = ops.inv(Z1)
    zi2 = ops.sqr(zi)
    x = ops.mul(X1, zi2)
    y = ops.mul(Y1, ops.mul(zi2, zi))
    return x, y


def _ld_double_kernel(ops, X1, Y1, Z1):
    """Lopez-Dahab doubling; branch-free, Z3 = 0 iff infinity."""
    a = ops.input("a")
    b = ops.input("b")
    t1 = ops.sqr(Z1)                       # Z1^2
    t2 = ops.sqr(X1)                       # X1^2
    z3 = ops.mul(t1, t2)                   # Z3 = X1^2*Z1^2
    x3 = ops.sqr(t2)                       # X1^4
    t1 = ops.sqr(t1)                       # Z1^4
    t2 = ops.mul(b, t1)                    # b*Z1^4
    x3 = ops.add(x3, t2)                   # X3 = X1^4 + b*Z1^4
    t1 = ops.sqr(Y1)                       # Y1^2
    t1 = ops.add(t1, ops.mul(a, z3))       # a*Z3 + Y1^2
    t1 = ops.add(t1, t2)                   # a*Z3 + Y1^2 + b*Z1^4
    y3 = ops.add(ops.mul(x3, t1), ops.mul(t2, z3))
    return x3, y3, z3


def _ld_madd_kernel(ops, X1, Y1, Z1):
    """Lopez-Dahab mixed addition (projective + affine)."""
    if ops.is_zero(Z1):
        return _embed_kernel(ops)
    x2 = ops.input("Px")
    y2 = ops.input("Py")
    a_c = ops.input("a")
    t1 = ops.sqr(Z1)                       # Z1^2
    aa = ops.add(ops.mul(y2, t1), Y1)      # A = y2*Z1^2 + Y1
    bb = ops.add(ops.mul(x2, Z1), X1)      # B = x2*Z1 + X1
    if ops.is_zero(bb):
        if ops.is_zero(aa):
            return _ld_double_kernel(ops, X1, Y1, Z1)
        return _inf_triple(ops)
    c = ops.mul(Z1, bb)                    # C = Z1*B
    z3 = ops.sqr(c)                        # Z3 = C^2
    d = ops.mul(ops.sqr(bb), ops.add(c, ops.mul(a_c, t1)))
    e = ops.mul(aa, c)                     # E = A*C
    x3 = ops.add(ops.add(ops.sqr(aa), e), d)
    f = ops.add(x3, ops.mul(x2, z3))       # F = X3 + x2*Z3
    g = ops.mul(ops.add(x2, y2), ops.sqr(z3))
    y3 = ops.add(ops.mul(ops.add(e, z3), f), g)
    return x3, y3, z3


def _ld_to_affine_kernel(ops, X1, Y1, Z1):
    if ops.is_zero(Z1):
        return None
    zi = ops.inv(Z1)
    x = ops.mul(X1, zi)
    y = ops.mul(Y1, ops.sqr(zi))
    return x, y


# per field kind, the kernel of its coordinate system that each audit
# column counts: the doubling, the mixed addition and the conversion to
# affine; and the name of that coordinate system
_KERNELS = {
    FieldKind.PRIME: {"point_double": _jac_double_kernel,
                      "point_add": _jac_madd_kernel,
                      "convert": _jac_to_affine_kernel},
    FieldKind.BINARY: {"point_double": _ld_double_kernel,
                       "point_add": _ld_madd_kernel,
                       "convert": _ld_to_affine_kernel},
}
_COORDINATES = {FieldKind.PRIME: "jacobian", FieldKind.BINARY: "lopez-dahab"}


# ---------------------------------------------------------------------------
# public projective interface (plain elements)

def to_projective(curve: CurveParams, P: AffinePoint) -> ProjectivePoint:
    _require_on_curve(curve, P)
    f = curve.field
    if P.is_infinity:
        return ProjectivePoint(f.one, f.one, f.zero)
    return ProjectivePoint(P.x, P.y, f.one)


def _run_kernel(curve: CurveParams, P: ProjectivePoint, column: str,
                q: AffinePoint = INFINITY):
    """Run the curve's kernel of audit column `column` (`_KERNELS`) on
    P's coordinates, loaded onto a fresh tape as the inputs `X`, `Y` and
    `Z` beside the run's table for the addend q; return its outputs as
    elements, or None when the kernel reports infinity."""
    if P.X.spec != curve.field:
        raise FieldMismatch("point coordinates live outside the curve field")
    from .scalarmul import _Tape  # scalarmul imports this module
    tape = _Tape(curve.field, {**_run_table(curve, q), "X": P.X.value,
                               "Y": P.Y.value, "Z": P.Z.value})
    out = _KERNELS[curve.field.kind][column](tape, *map(tape.input, "XYZ"))
    return None if out is None else [tape.element(i) for i in out]


def to_affine(curve: CurveParams, P: ProjectivePoint) -> AffinePoint:
    """Convert back to affine with exactly one field inversion."""
    out = _run_kernel(curve, P, "convert")
    return INFINITY if out is None else AffinePoint(*out)


def point_double_projective(curve: CurveParams,
                            P: ProjectivePoint) -> ProjectivePoint:
    return ProjectivePoint(*_run_kernel(curve, P, "point_double"))


def point_add_projective(curve: CurveParams, P: ProjectivePoint,
                         q: AffinePoint) -> ProjectivePoint:
    """Mixed addition: projective accumulator plus affine point."""
    _require_on_curve(curve, q)
    if q.is_infinity:
        raise NotOnCurve("mixed addition needs a finite affine addend")
    return ProjectivePoint(*_run_kernel(curve, P, "point_add", q))

