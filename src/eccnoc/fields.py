"""Finite-field arithmetic for GF(p) and GF(2^m).

Elements are immutable wrappers around Python ints.  For GF(p) the int is
the least nonnegative residue; for GF(2^m) bit i of the int is the
coefficient of z^i in the polynomial-basis representation, fully reduced
by the field's irreducible polynomial.  Every operation returns a
canonical value, so equality is plain int equality.  Fields wider than
`MAX_FIELD_BITS` are refused before their modulus is tested.

Each `FieldSpec` binds six raw int ops (`_add`, `_sub`, `_mul`, `_sqr`,
`_inv` and `_reduce`) once, when it is built, as closures over the
modulus or the polynomial, so no call branches on the field kind or
reads the spec's fields.  Negation is subtraction from zero.

The op-kind facts the rest of the package shares are stated here once:
`OpKind`, each kind's one-byte code on a tape (`KIND_CODES`), its arity
(`ARITY`) and its raw op (`_RAW_OPS`).  Code generated per field kind
(`scalarmul`'s compiled steps, `procmodel`'s replay loops, both
compiled by `_define`) writes the cheap raw ops inline instead of
calling them: `INLINE_OPS` states the expression of each GF(p) add,
sub, mul and sqr and each GF(2^m) add and sub, next to the closures it
must equal, and `op_locals` and `op_expression` are the one writer of
an op and of the locals it binds.

GF(2^m) products use the comb method of Lopez and Dahab with a 4-bit
window: a 16-entry table of multiples of one operand, indexed by the
other operand four bits at a time.  A product with an operand below 16
(the curve constants a = 1 and b = 0xb of the binary presets, or a base
point's x = 3) skips the table: it is the XOR of at most four shifts of
the other operand.  The polynomial f = z^m + z^d + ... alone chooses how
the product is reduced:

- a trinomial or pentanomial with 2d <= m + 1 folds: the part at and
  above z^m, hi, is replaced by hi times the terms of f below z^m, as
  one fixed expression per shape, and any product of two reduced
  elements needs at most two folds (Hankerson, Menezes & Vanstone,
  Guide to Elliptic Curve Cryptography, 2004, sec. 2.3.5).  Every
  binary preset and the five NIST polynomials of FIPS 186-4 fold; SEC
  2's z^239 + z^158 + 1 does not.
- any other polynomial, dense ones included, where folding could take up
  to m rounds, clears eight bits above z^m per step through a 256-entry
  table of (j * z^m) mod f that the field builds once.
"""

from __future__ import annotations

import enum
import linecache
from dataclasses import dataclass
from math import isqrt
from operator import xor
from typing import Callable, Iterator

from .errors import (BadValue, DivisionByZero, FieldMismatch,
                     OracleBoundExceeded)

_ENUMERATION_BOUND = 1 << 16

# the widest field accepted: 64 flits of 32 bits, the widest value that
# nocsim can ship (nocsim.MAX_FLITS_PER_VALUE is derived from it)
MAX_FIELD_BITS = 2048


# the most characters of outside text an error message repeats
_SHOW_CHARS = 60


def _show(value: int | str) -> str:
    """`value` for an error message.  An int shows in decimal if it is at
    most MAX_FIELD_BITS wide, else by its width, since the interpreter
    refuses to print ints of more than 4300 digits.  Text shows quoted,
    cut to its first _SHOW_CHARS characters and its length when longer,
    so a huge rejected input gives a short message."""
    if isinstance(value, str):
        if len(value) <= _SHOW_CHARS:
            return repr(value)
        return f"{value[:_SHOW_CHARS]!r}\u2026 ({len(value)} characters)"
    if value.bit_length() <= MAX_FIELD_BITS:
        return str(value)
    return (f"a {'negative ' if value < 0 else ''}{value.bit_length()}"
            f"-bit int")


def _require_ints(obj, owner: str, names) -> None:
    """Raise BadValue unless each named field of `obj` is exactly an
    int: a bool, float or str would reach the arithmetic."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            raise BadValue(f"{owner} {name} must be an int, got "
                           f"{type(value).__name__}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# the least composite that passes Miller-Rabin to every base in _MR_BASES
# (Sorenson & Webster, Math. Comp. 86, 2017); from here on a strong Lucas
# test is added
_MR_EXACT_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37, exact below 3.18e23; from there
    on Miller-Rabin to base 2 and a strong Lucas test, the Baillie-PSW
    test (no composite is known to pass it)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES if n < _MR_EXACT_BOUND else _MR_BASES[:1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BOUND or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2, with Selfridge's
    parameters: the first D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) // 2

    # left-to-right over the bits of d: (U_k, V_k, Q^k) -> index 2k (+1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# GF(2)[z] helpers on raw ints (bit i = coefficient of z^i)

def _pdeg(x: int) -> int:
    return x.bit_length() - 1


def _pmod(x: int, f: int) -> int:
    df = _pdeg(f)
    while _pdeg(x) >= df:
        x ^= f << (_pdeg(x) - df)
    return x


def _clmul(a: int, b: int) -> int:
    """Carry-less product in GF(2)[z].  A shorter operand below 16 (a
    curve constant such as a = 1, or a small base-point coordinate)
    multiplies by shifts alone: the XOR of the longer operand shifted by
    each set bit.  Otherwise a 4-bit window comb walks the shorter
    operand against a table of the 16 multiples of the other."""
    if a < b:
        a, b = b, a
    if b < 16:
        r = a if b & 1 else 0
        if b & 2:
            r ^= a << 1
        if b & 4:
            r ^= a << 2
        if b & 8:
            r ^= a << 3
        return r
    a2, a4, a8 = a << 1, a << 2, a << 3
    a3, a12 = a2 ^ a, a8 ^ a4
    w = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
         a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
    r = 0
    for byte in b.to_bytes((b.bit_length() + 7) >> 3, "big"):
        r = (r << 8) ^ (w[byte >> 4] << 4) ^ w[byte & 15]
    return r


def _psqr(a: int) -> int:
    """a * a in GF(2)[z], equal to _clmul(a, a): the cross terms cancel
    in pairs, so each coefficient moves to twice its exponent.  Read as
    base-4 digits, a's binary digits put bit i at bit 2i; the int/str
    digit limit does not apply to power-of-two bases."""
    return int(format(a, "b"), 4)


def _reduction_table(f: int) -> tuple[int, ...]:
    """R[j] = (j * z^m) mod f for every j below 256 (m = deg f)."""
    m = _pdeg(f)
    table = [0]
    for i in range(8):
        r = _pmod(1 << (m + i), f)
        table += [t ^ r for t in table]
    return tuple(table)


def _table_reduce(x: int, m: int, table: tuple[int, ...]) -> int:
    """x mod f for the degree-m polynomial f that `table` was built from.

    Works down from the top, replacing the eight coefficients of
    z^(m+s) .. z^(m+s+7) by their residue, which lies below z^(m+s)."""
    for s in range((x.bit_length() - 1 - m) & -8, -1, -8):
        j = x >> (m + s) & 0xFF
        x ^= (j << (m + s)) ^ (table[j] << s)
    return x


def _fold_exponents(m: int, f: int) -> tuple[int, ...] | None:
    """The exponents of f's terms below z^m when f reduces by folding:
    a trinomial z^m + z^k + 1 or a pentanomial z^m + z^k3 + z^k2 + z^k1
    + 1, whose second-highest exponent d has 2d <= m + 1.  (An
    irreducible polynomial of degree m >= 2 has an odd number of terms,
    or z + 1 would divide it, so these are its sparse shapes.)  A
    product of two reduced elements is below z^(2m-1), so its first fold
    leaves less than z^(m-1+d), and the second less than z^(2d-1), which
    is at most z^m."""
    low = tuple(e for e in range(m) if f >> e & 1)
    if len(low) in (2, 4) and low[0] == 0 and 2 * low[-1] <= m + 1:
        return low
    return None


def _reducer(m: int, f: int) -> Callable[[int], int]:
    """x mod f for the degree-m polynomial f.  A trinomial or pentanomial
    that folds gets a closure that replaces the part at and above z^m,
    hi, by hi times f's low terms in one fixed expression; every other
    polynomial goes through f's byte table."""
    low = _fold_exponents(m, f)
    if low is None:
        table = _reduction_table(f)

        def reduce(x: int) -> int:
            return _table_reduce(x, m, table)
        return reduce
    mask = (1 << m) - 1
    if len(low) == 2:
        k = low[1]

        def reduce(x: int) -> int:
            while hi := x >> m:
                x = (x & mask) ^ hi ^ (hi << k)
            return x
    else:
        _, k1, k2, k3 = low

        def reduce(x: int) -> int:
            while hi := x >> m:
                x = (x & mask) ^ hi ^ (hi << k1) ^ (hi << k2) ^ (hi << k3)
            return x
    return reduce


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def is_irreducible(f: int) -> bool:
    """Rabin's irreducibility test for a GF(2) polynomial given as an int."""
    m = _pdeg(f)
    if m < 1 or f < 0:
        return False
    if m == 1:
        return True
    if not f & 1:
        return False  # divisible by z
    if f.bit_count() % 2 == 0:
        return False  # f(1) = 0, so divisible by z + 1
    reduce = _reducer(m, f)
    z = 0b10
    t = z
    for _ in range(m):
        t = reduce(_psqr(t))
    if t != z:
        return False
    for q in _prime_factors(m):
        t = z
        for _ in range(m // q):
            t = reduce(_psqr(t))
        if _pgcd(f, t ^ z) != 1:
            return False
    return True


RawOps = tuple[Callable[..., int], ...]


def _prime_ops(p: int, tag: str) -> RawOps:
    """(_add, _sub, _mul, _sqr, _inv, _reduce) of GF(p)."""
    def add(a: int, b: int) -> int:
        return (a + b) % p

    def sub(a: int, b: int) -> int:
        return (a - b) % p

    def mul(a: int, b: int) -> int:
        return a * b % p

    def sqr(a: int) -> int:
        return a * a % p

    def inv(a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"zero has no inverse in {tag}")
        return pow(a, -1, p)

    def reduce(x: int) -> int:
        return x % p

    return add, sub, mul, sqr, inv, reduce


def _binary_ops(m: int, f: int, tag: str) -> RawOps:
    """(_add, _sub, _mul, _sqr, _inv, _reduce) of GF(2^m) under the
    polynomial f of degree m."""
    reduce = _reducer(m, f)

    def mul(a: int, b: int) -> int:
        return reduce(_clmul(a, b))

    def sqr(a: int) -> int:
        return reduce(_psqr(a))

    def inv(a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"zero has no inverse in {tag}")
        # extended Euclid in GF(2)[z]; invariants g1*a = u, g2*a = v (mod f)
        u, v = a, f
        g1, g2 = 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2 = v, u, g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return reduce(g1)

    return xor, xor, mul, sqr, inv, reduce


class FieldKind(enum.Enum):
    PRIME = "prime"
    BINARY = "binary"


class OpKind(enum.Enum):
    """The field-operation vocabulary tracked everywhere downstream."""

    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    SQR = "SQR"
    INV = "INV"
    XFER = "XFER"

    # members are singletons and Enum's == is identity, so an identity
    # hash agrees with it and dict lookups skip Python-level Enum.__hash__
    __hash__ = object.__hash__


ARITH_KINDS = (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.SQR, OpKind.INV)
# every op kind in the order of its one-byte code on a tape, a kind's
# code being its index here: the arithmetic kinds in `ARITH_KINDS`
# order, then XFER
KIND_CODES = (*ARITH_KINDS, OpKind.XFER)
# the operands each op kind takes
ARITY = {OpKind.ADD: 2, OpKind.SUB: 2, OpKind.MUL: 2, OpKind.SQR: 1,
         OpKind.INV: 1, OpKind.XFER: 0}


# the raw int ops on canonical values that __post_init__ binds on each
# FieldSpec, in the order `_prime_ops` and `_binary_ops` return them: the
# raw op of each arithmetic kind at its kind code, then `_reduce`; plain
# attributes, not fields, so equality, hashing and repr ignore them (as
# they do `bits`, `order` and `tag`, bound with them)
_RAW_OPS = ("_add", "_sub", "_mul", "_sqr", "_inv", "_reduce")


# Per field kind, the raw ops that generated code writes inline rather
# than calling, each as a format string over its operands' names whose
# value equals the op's.  The first dict binds each name the expressions
# read to the FieldSpec attribute it is read from, once per generated
# function.  An op missing from the second (a GF(2^m) product or square,
# an inversion) stays a call to the field's closure.  Only `op_locals`
# and `op_expression` read it.
INLINE_OPS = {
    FieldKind.PRIME: ({"p": "modulus"},
                      {"_add": "({0} + {1}) % p", "_sub": "({0} - {1}) % p",
                       "_mul": "{0} * {1} % p", "_sqr": "{0} * {0} % p"}),
    FieldKind.BINARY: ({}, {"_add": "{0} ^ {1}", "_sub": "{0} ^ {1}"}),
}


def op_locals(kind: FieldKind, spec: str, codes) -> tuple[list, list]:
    """The lines of a function generated for field kind `kind` that bind
    its locals from the FieldSpec it names `spec`: each name the kind's
    inline expressions read, then, in the order of `codes`, the raw op
    of each kind code there that `op_expression` writes as a call."""
    names, inline = INLINE_OPS[kind]
    raws = [_RAW_OPS[code] for code in codes]
    return ([f"{var} = {spec}.{attr}" for var, attr in names.items()],
            [f"{raw} = {spec}.{raw}" for raw in raws if raw not in inline])


def op_expression(kind: FieldKind, code: int, args) -> str:
    """The expression generated code for field kind `kind` writes for an
    op of kind code `code` on the operand expressions `args`: the op's
    inline expression, or a call of its raw op as `op_locals` binds it."""
    raw, inline = _RAW_OPS[code], INLINE_OPS[kind][1]
    return (inline[raw].format(*args) if raw in inline
            else f"{raw}({', '.join(args)})")


def _function(lines: list[str]) -> str:
    """The source of a generated function from its lines: the `def`
    line, then each body line indented once."""
    return "\n    ".join(lines) + "\n"


class _Texts(dict):
    """A table that answers a missing key with its `str`: the table a
    kernel is traced on, where each input's value is its label, and
    `procmodel`'s int -> str spelling table."""

    __missing__ = staticmethod(str)


def _define(source: str, filename: str, **names) -> dict:
    """The functions `source` defines, by name, from one `compile` with
    `names` as their globals; the source is kept in `linecache` under
    `filename`, so tracebacks and `inspect` show it."""
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = dict(names)
    exec(compile(source, filename, "exec"), namespace)
    # popped, so that no cycle runs through the functions' globals
    return {name: namespace.pop(name) for name in [*namespace]
            if name not in names and name != "__builtins__"}


@dataclass(frozen=True)
class FieldSpec:
    """A validated field description: GF(p) or GF(2^m).

    Every way of building one (the `prime` / `binary` constructors, the
    generated constructor, `dataclasses.replace`, unpickling) runs
    `__post_init__`, which rejects composite moduli and reducible
    polynomials up front so arithmetic can assume a field, then binds
    the width in bits, the element count, the `GF(...)` tag and the raw
    ops named in `_RAW_OPS` as attributes, in one branch per kind.
    """

    kind: FieldKind
    modulus: int = 0          # p (prime fields only)
    degree: int = 0           # m (binary fields only)
    reduction_poly: int = 0   # monic irreducible of degree m (binary only)

    def __post_init__(self):
        if not isinstance(self.kind, FieldKind):
            raise BadValue(f"field kind must be a FieldKind, got "
                           f"{type(self.kind).__name__}")
        _require_ints(self, "field", ("modulus", "degree", "reduction_poly"))
        p, m, poly = self.modulus, self.degree, self.reduction_poly
        if self.kind is FieldKind.PRIME:
            if m or poly:
                raise BadValue("a prime field takes no degree or reduction "
                               "polynomial")
            if p <= 3:
                raise BadValue(f"prime field modulus must exceed 3, got "
                               f"{_show(p)}")
            if p.bit_length() > MAX_FIELD_BITS:
                raise BadValue(f"prime field modulus has {p.bit_length()} "
                               f"bits; fields wider than {MAX_FIELD_BITS} "
                               "bits are refused")
            if not _is_prime(p):
                raise BadValue(f"modulus {p} is not prime")
            bits, order, tag = p.bit_length(), p, f"GF({p})"
            ops = _prime_ops(p, tag)
        else:
            if p:
                raise BadValue("a binary field takes no modulus")
            if m < 2:
                raise BadValue(f"binary field degree must be at least 2, "
                               f"got {_show(m)}")
            if m > MAX_FIELD_BITS:
                raise BadValue(f"binary field degree is {_show(m)}; fields "
                               f"wider than {MAX_FIELD_BITS} bits are refused")
            if poly < 0:
                raise BadValue("reduction polynomial must be nonnegative")
            if _pdeg(poly) != m:
                raise BadValue(f"reduction polynomial degree {_pdeg(poly)} "
                               f"does not match m={m}")
            if not poly & 1:
                raise BadValue("reduction polynomial has zero constant term")
            if not is_irreducible(poly):
                raise BadValue(f"reduction polynomial {poly:#x} is reducible")
            bits, order, tag = m, 1 << m, f"GF(2^{m})"
            ops = _binary_ops(m, poly, tag)
        for name, value in zip(("bits", "order", "tag", *_RAW_OPS),
                               (bits, order, tag, *ops)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # closures do not pickle: rebuild from the defining fields, which
        # validates them and binds the ops afresh
        return FieldSpec, (self.kind, self.modulus, self.degree,
                           self.reduction_poly)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(kind=FieldKind.PRIME, modulus=p)

    @classmethod
    def binary(cls, m: int, poly: int) -> "FieldSpec":
        return cls(kind=FieldKind.BINARY, degree=m, reduction_poly=poly)

    # -- element construction ----------------------------------------------

    def element(self, value: int) -> "FieldElement":
        """Wrap an int, reducing it to canonical form first."""
        if type(value) is not int:  # a float, bool or str would be kept
            raise BadValue(f"a field element is an int, got "
                           f"{type(value).__name__}")
        if value < 0 and self.kind is FieldKind.BINARY:
            raise BadValue("binary field elements are nonnegative bit vectors")
        return FieldElement(self, self._reduce(value))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(self, rng.randrange(self.order))

    def elements(self) -> Iterator["FieldElement"]:
        """Yield every element; refuses fields beyond desk scale."""
        if self.order > _ENUMERATION_BOUND:
            raise OracleBoundExceeded(
                f"{self.tag} has {self.order} elements; enumeration is capped "
                f"at {_ENUMERATION_BOUND}")
        for v in range(self.order):
            yield FieldElement(self, v)


@dataclass(frozen=True)
class FieldElement:
    """A canonical element of a concrete field."""

    spec: FieldSpec
    value: int

    def __repr__(self) -> str:
        return f"{self.spec.tag}:{self.value:x}"

    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return ff_add(self, other)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return ff_sub(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return ff_mul(self, other)

    def __neg__(self) -> "FieldElement":
        return ff_neg(self)


def _same_spec(a: FieldElement, b: FieldElement) -> FieldSpec:
    # operands of one run share a spec object; only others need comparing
    if a.spec is not b.spec and a.spec != b.spec:
        raise FieldMismatch(f"operands live in {a.spec.tag} and {b.spec.tag}")
    return a.spec


def ff_add(a: FieldElement, b: FieldElement) -> FieldElement:
    spec = _same_spec(a, b)
    return FieldElement(spec, spec._add(a.value, b.value))


def ff_sub(a: FieldElement, b: FieldElement) -> FieldElement:
    spec = _same_spec(a, b)
    return FieldElement(spec, spec._sub(a.value, b.value))


def ff_mul(a: FieldElement, b: FieldElement) -> FieldElement:
    spec = _same_spec(a, b)
    return FieldElement(spec, spec._mul(a.value, b.value))


def ff_sqr(a: FieldElement) -> FieldElement:
    return FieldElement(a.spec, a.spec._sqr(a.value))


def ff_inv(a: FieldElement) -> FieldElement:
    return FieldElement(a.spec, a.spec._inv(a.value))


def ff_neg(a: FieldElement) -> FieldElement:
    return FieldElement(a.spec, a.spec._sub(0, a.value))
