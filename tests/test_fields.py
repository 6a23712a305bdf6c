"""Field arithmetic against hand-computed tables and independent oracles."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from eccnoc import fields
from eccnoc.errors import (BadValue, DivisionByZero, FieldMismatch,
                           OracleBoundExceeded)
from eccnoc.fields import (MAX_FIELD_BITS, FieldKind, FieldSpec, _clmul,
                           _fold_exponents, _is_strong_lucas_prp, _psqr,
                           _reducer, ff_add, ff_inv, ff_mul, ff_neg, ff_sqr,
                           ff_sub, is_irreducible)
from eccnoc.presets import PRESETS

from conftest import seeded

GF17 = FieldSpec.prime(17)
GF8 = FieldSpec.binary(3, 0b1011)      # z^3 + z + 1
GF16 = FieldSpec.binary(4, 0b10011)    # z^4 + z + 1
P32 = FieldSpec.prime(4294967291)
B33 = FieldSpec.binary(33, (1 << 33) | (1 << 10) | 1)


def test_prime_spot_values():
    e = GF17.element
    assert (e(5) + e(13)).value == 1
    assert (e(16) + e(1)).value == 0
    assert (e(3) - e(7)).value == 13
    assert (e(5) * e(7)).value == 1
    assert ff_inv(e(5)).value == 7
    assert ff_inv(e(2)).value == 9
    assert (-e(3)).value == 14
    assert ff_sqr(e(4)).value == 16


def test_binary_gf8_full_inverse_table():
    # brute-forced by hand for z^3 + z + 1
    table = {1: 1, 2: 5, 3: 6, 4: 7, 5: 2, 6: 3, 7: 4}
    for v, inv in table.items():
        assert ff_inv(GF8.element(v)).value == inv
        assert (GF8.element(v) * GF8.element(inv)).value == 1


def test_binary_gf8_spot_values():
    e = GF8.element
    assert (e(0b011) * e(0b101)).value == 0b100
    assert ff_sqr(e(0b011)).value == 0b101
    assert ff_inv(e(0b010)).value == 0b101
    assert (e(0b110) + e(0b011)).value == 0b101
    assert (e(0b110) - e(0b011)).value == 0b101  # subtraction is addition
    assert (-e(0b110)).value == 0b110            # self-inverse group


def _axiom_sweep(spec, triples):
    zero, one = spec.zero, spec.one
    for a, b, c in triples:
        assert (a + b) == (b + a)
        assert (a * b) == (b * a)
        assert ((a + b) + c) == (a + (b + c))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * (b + c)) == (a * b + a * c)
        assert (a + zero) == a
        assert (a * one) == a
        assert (a + (-a)).value == 0
        assert ff_sqr(a) == a * a
        if a.value:
            assert (a * ff_inv(a)) == one


def test_axioms_exhaustive_toy_fields():
    for spec in (GF17, GF16):
        elems = list(spec.elements())
        triples = [(a, b, c) for a in elems for b in elems for c in elems]
        _axiom_sweep(spec, triples)


@pytest.mark.parametrize("spec,seed", [(P32, 101), (B33, 202)])
def test_axioms_random_midsize(spec, seed):
    rng = seeded(seed)
    triples = [tuple(spec.random_element(rng) for _ in range(3))
               for _ in range(300)]
    _axiom_sweep(spec, triples)


def _pow_ladder(spec, a, e):
    # square-and-multiply, independent of ff_inv
    acc = spec.one
    base = a
    while e:
        if e & 1:
            acc = acc * base
        base = ff_sqr(base)
        e >>= 1
    return acc


@pytest.mark.parametrize("spec,seed", [(GF17, 1), (GF8, 2), (GF16, 3),
                                       (P32, 4), (B33, 5)])
def test_inverse_matches_exponentiation_oracle(spec, seed):
    # a^-1 = a^(q-2) in any field of order q
    rng = seeded(seed)
    samples = [spec.random_element(rng) for _ in range(40)]
    if spec.order <= 1 << 8:
        samples = list(spec.elements())
    for a in samples:
        if a.value == 0:
            continue
        assert ff_inv(a) == _pow_ladder(spec, a, spec.order - 2)


def test_binary_squaring_is_frobenius():
    rng = seeded(77)
    for spec in (GF16, B33):
        for _ in range(120):
            a = spec.random_element(rng)
            b = spec.random_element(rng)
            assert ff_sqr(a + b) == ff_sqr(a) + ff_sqr(b)


def test_polynomial_square_equals_carry_less_product():
    rng = seeded(79)
    for x in [*range(16), (1 << MAX_FIELD_BITS) - 1] + [
            rng.getrandbits(rng.randrange(1, MAX_FIELD_BITS + 1))
            for _ in range(300)]:
        assert _psqr(x) == _clmul(x, x)


def test_results_stay_canonical():
    rng = seeded(88)
    for spec in (GF17, GF16, P32, B33):
        bound = spec.order
        for _ in range(150):
            a = spec.random_element(rng)
            b = spec.random_element(rng)
            for r in (a + b, a - b, a * b, ff_sqr(a), ff_neg(a)):
                assert 0 <= r.value < bound
            if a.value:
                assert 0 <= ff_inv(a).value < bound


def test_element_constructor_canonicalizes():
    assert GF17.element(-3).value == 14
    assert GF17.element(40).value == 6
    # z^4 reduces to z + 1 under z^4 + z + 1
    assert GF16.element(0b10000).value == 0b0011
    with pytest.raises(ValueError):
        GF16.element(-1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero,
                       match=r"^zero has no inverse in GF\(17\)$"):
        ff_inv(GF17.zero)
    with pytest.raises(DivisionByZero,
                       match=r"^zero has no inverse in GF\(2\^4\)$"):
        ff_inv(GF16.zero)


def test_field_mismatch_rejected():
    other = FieldSpec.prime(19)
    with pytest.raises(FieldMismatch):
        ff_add(GF17.one, other.one)
    with pytest.raises(FieldMismatch):
        ff_mul(GF16.one, GF8.one)
    with pytest.raises(FieldMismatch):
        ff_sub(GF16.one, FieldSpec.binary(4, 0b11001).one)


def test_equal_specs_built_apart_combine():
    """Operands need equal fields, not one spec object."""
    # 5 and 3: 8, 2, 15 mod 17; in GF(2^4), 5 ^ 3 twice and
    # (z^2 + 1)(z + 1) = z^3 + z^2 + z + 1
    for spec, twin, want in ((GF17, FieldSpec.prime(17), (8, 2, 15)),
                             (GF16, FieldSpec.binary(4, 0b10011), (6, 6, 15))):
        assert twin is not spec and twin == spec
        a, b = spec.element(5), twin.element(3)
        assert (ff_add(a, b).value, ff_sub(a, b).value,
                ff_mul(a, b).value) == want


# FIPS 186-4 App. D's five binary fields, and SEC 2's sect239, whose
# z^158 term keeps it on the table (2 * 158 > 239 + 1)
_NAMED_POLYS = {
    "B-163": (163, 7, 6, 3), "B-233": (233, 74), "B-283": (283, 12, 7, 5),
    "B-409": (409, 87), "B-571": (571, 10, 5, 2), "sect239": (239, 158),
}


def _named_poly(name):
    m, *middle = _NAMED_POLYS[name]
    return m, 1 << m | sum(1 << e for e in middle) | 1


_SECT239 = _named_poly("sect239")[1]


@pytest.mark.parametrize("build,want", [
    (lambda: FieldSpec.prime(17),
     "FieldSpec(kind=<FieldKind.PRIME: 'prime'>, modulus=17, degree=0, "
     "reduction_poly=0)"),
    (lambda: FieldSpec.binary(4, 0b10011),
     "FieldSpec(kind=<FieldKind.BINARY: 'binary'>, modulus=0, degree=4, "
     "reduction_poly=19)"),
    (lambda: FieldSpec.binary(239, _SECT239),
     "FieldSpec(kind=<FieldKind.BINARY: 'binary'>, modulus=0, degree=239, "
     f"reduction_poly={_SECT239})"),
])
def test_specs_built_apart_are_equal_and_print_alike(build, want):
    """The bound ops of a spec play no part in equality, hash or repr,
    and a pickled spec comes back with working ops."""
    spec, twin = build(), build()
    assert twin is not spec and twin._mul is not spec._mul
    assert twin == spec and hash(twin) == hash(spec)
    assert repr(twin) == repr(spec) == want
    assert spec != FieldSpec.prime(19) and spec != GF8
    clone = pickle.loads(pickle.dumps(spec.element(12345)))
    assert clone.spec == spec and clone == spec.element(12345)
    assert ff_sqr(clone) == ff_sqr(spec.element(12345))


def test_field_width_is_bounded():
    """Fields up to MAX_FIELD_BITS (2048) wide are accepted; wider ones
    are refused before their primality or irreducibility test."""
    assert MAX_FIELD_BITS == 2048
    assert FieldSpec.prime(2**2048 - 1557).bits == 2048
    f2048 = 1 << 2048 | 1 << 19 | 1 << 14 | 1 << 13 | 1
    assert FieldSpec.binary(2048, f2048).bits == 2048
    with pytest.raises(BadValue, match="2049 bits; fields wider than 2048"):
        FieldSpec.prime(2**2048 + 981)   # a prime
    with pytest.raises(BadValue, match="2049; fields wider than 2048"):
        FieldSpec.binary(2049, 1 << 2049 | 1 << 2 | 1)


def test_bad_field_parameters_rejected():
    with pytest.raises(ValueError):
        FieldSpec.prime(15)          # composite
    with pytest.raises(ValueError):
        FieldSpec.prime(3)           # too small
    with pytest.raises(ValueError):
        FieldSpec.binary(4, 0b10001)     # z^4 + 1 = (z + 1)^4
    with pytest.raises(ValueError):
        FieldSpec.binary(4, 0b10110)     # zero constant term
    with pytest.raises(ValueError):
        FieldSpec.binary(4, 0b1011)      # degree mismatch
    with pytest.raises(ValueError):
        FieldSpec.binary(1, 0b11)        # degree too small for a field here


@pytest.mark.parametrize("build,match", [
    (lambda: FieldSpec(FieldKind.BINARY, degree=4, reduction_poly=0b10001),
     "0x11 is reducible"),
    (lambda: FieldSpec(FieldKind.PRIME, modulus=15), "15 is not prime"),
    (lambda: FieldSpec(FieldKind.PRIME), "must exceed 3, got 0"),
    (lambda: FieldSpec(FieldKind.BINARY), "at least 2, got 0"),
    (lambda: FieldSpec("prime", modulus=17), "must be a FieldKind, got str"),
    (lambda: FieldSpec(FieldKind.PRIME, modulus=17.0),
     "modulus must be an int, got float"),
    (lambda: FieldSpec(FieldKind.BINARY, degree=True, reduction_poly=0b11),
     "degree must be an int, got bool"),
    (lambda: FieldSpec(FieldKind.BINARY, degree=4, reduction_poly="19"),
     "reduction_poly must be an int, got str"),
    (lambda: FieldSpec(FieldKind.PRIME, modulus=17, degree=4),
     "prime field takes no degree"),
    (lambda: FieldSpec(FieldKind.PRIME, modulus=17, reduction_poly=0b10011),
     "prime field takes no degree or reduction polynomial"),
    (lambda: FieldSpec(FieldKind.BINARY, modulus=17, degree=4,
                       reduction_poly=0b10011),
     "binary field takes no modulus"),
    (lambda: FieldSpec(FieldKind.BINARY, degree=4, reduction_poly=-19),
     "must be nonnegative"),
    # its irreducibility test never ended
    (lambda: FieldSpec.binary(2, -5), "must be nonnegative"),
    (lambda: dataclasses.replace(GF16, reduction_poly=0b10001), "reducible"),
    (lambda: dataclasses.replace(GF16, degree=5), "does not match m=5"),
    (lambda: dataclasses.replace(GF17, modulus=15), "not prime"),
    (lambda: dataclasses.replace(GF17, kind=FieldKind.BINARY),
     "binary field takes no modulus"),
    # ints past the interpreter's 4300-digit print limit are named by
    # their width, so the message can be built at all
    (lambda: FieldSpec.binary(10**5000, 3),
     "degree is a 16610-bit int; fields wider than 2048"),
    (lambda: FieldSpec.binary(-10**5000, 3),
     "at least 2, got a negative 16610-bit int"),
    (lambda: FieldSpec.prime(-10**5000),
     "must exceed 3, got a negative 16610-bit int"),
])
def test_every_constructor_validates(build, match):
    """The generated constructor and dataclasses.replace run the same
    checks as FieldSpec.prime / binary: no spec over a composite modulus
    or a reducible polynomial exists to hang or crash its arithmetic."""
    with pytest.raises(BadValue, match=match):
        build()


def test_direct_constructor_and_replace_build_valid_specs():
    assert dataclasses.replace(GF17, modulus=19) == FieldSpec.prime(19)
    assert FieldSpec(FieldKind.BINARY, degree=4, reduction_poly=0b10011) \
        == GF16
    twin = dataclasses.replace(B33)
    assert twin == B33 and ff_mul(twin.element(5), twin.element(7)) \
        == ff_mul(B33.element(5), B33.element(7))


class _Forged:
    """Pickles as a FieldSpec over the given fields, none checked."""

    def __init__(self, *args):
        self.args = args

    def __reduce__(self):
        return FieldSpec, self.args


@pytest.mark.parametrize("args,match", [
    ((FieldKind.BINARY, 0, 4, 0b10001), "reducible"),
    ((FieldKind.PRIME, 15, 0, 0), "not prime"),
    (("binary", 0, 4, 0b10011), "must be a FieldKind"),
])
def test_forged_pickle_is_validated(args, match):
    payload = pickle.dumps(_Forged(*args))
    with pytest.raises(BadValue, match=match):
        pickle.loads(payload)


def _naive_pmod(x, f):
    df = f.bit_length() - 1
    while x.bit_length() - 1 >= df:
        x ^= f << (x.bit_length() - 1 - df)
    return x


def _naive_irreducible(f):
    # trial division by every polynomial of degree 1..deg(f)//2
    m = f.bit_length() - 1
    for d in range(1, m // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if _naive_pmod(f, g) == 0:
                return False
    return True


def test_irreducibility_against_trial_division():
    for m in range(2, 13):
        for f in range(1 << m, 1 << (m + 1)):
            assert is_irreducible(f) == _naive_irreducible(f), bin(f)


def test_negative_ints_are_not_irreducible():
    assert not any(is_irreducible(-f) for f in range(600))


def test_even_weight_polynomials_rejected_before_any_reduction(monkeypatch):
    """z + 1 divides a polynomial with an even number of terms, so only
    three- and five-term polynomials reach the fold closures."""
    def no_reducer(m, f):
        raise AssertionError(f"reducer built for {f:#x}")

    monkeypatch.setattr(fields, "_reducer", no_reducer)
    for f in (0b101, 0b10001, 1 << 163 | 1 << 7 | 1 << 6 | 1,
              1 << 2048 | 1 << 5 | 1 << 3 | 1):
        assert not is_irreducible(f)


def test_enumeration_is_bounded():
    with pytest.raises(OracleBoundExceeded):
        list(B33.elements())


def test_descriptors():
    assert GF17.bits == 5 and GF17.order == 17 and GF17.tag == "GF(17)"
    assert GF16.bits == 4 and GF16.order == 16 and GF16.tag == "GF(2^4)"
    assert GF17.kind is FieldKind.PRIME
    assert GF16.kind is FieldKind.BINARY
    assert ff_sub(GF17.element(3), GF17.element(3)).value == 0


# ---------------------------------------------------------------------------
# GF(2^m) arithmetic against a bit-serial oracle

def _ref_mulmod(a, b, f):
    # shift-and-add, one bit of b at a time, then long division
    r = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            r ^= a << i
    return _naive_pmod(r, f)


def _check_against_oracle(spec, a, b, x):
    f = spec.reduction_poly
    A, B = spec.element(a), spec.element(b)
    assert ff_mul(A, B).value == _ref_mulmod(a, b, f)
    assert ff_sqr(A).value == _ref_mulmod(a, a, f)
    assert spec.element(x).value == _naive_pmod(x, f)
    if a:
        assert _ref_mulmod(a, ff_inv(A).value, f) == 1


_BINARY_PRESETS = sorted(name for name, p in PRESETS.items()
                         if p.curve.field.kind is FieldKind.BINARY)
_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)


@pytest.mark.parametrize("name", _BINARY_PRESETS)
@_PROPERTY
@given(data=st.data())
def test_binary_presets_match_bit_serial_oracle(name, data):
    spec = PRESETS[name].curve.field
    m = spec.degree
    a, b = (data.draw(st.integers(0, (1 << m) - 1)) for _ in range(2))
    x = data.draw(st.integers(0, (1 << 3 * m) - 1))
    _check_against_oracle(spec, a, b, x)


@st.composite
def _irreducible_polys(draw):
    m = draw(st.integers(2, 80))
    low = draw(st.integers(0, (1 << m) - 1))
    if draw(st.booleans()):
        # dense, with the z^(m-1) term that slows a reduction folding by
        # the low terms
        low = ~low & ((1 << m) - 1) | 1 << m - 1
    f = (1 << m) | low | 1
    i = 0
    while not is_irreducible(f ^ 2 * i):
        i += 1
    return f ^ 2 * i


@_PROPERTY
@given(f=_irreducible_polys(), data=st.data())
def test_random_fields_match_bit_serial_oracle(f, data):
    m = f.bit_length() - 1
    a, b = (data.draw(st.integers(0, (1 << m) - 1)) for _ in range(2))
    x = data.draw(st.integers(0, (1 << 3 * m) - 1))
    _check_against_oracle(FieldSpec.binary(m, f), a, b, x)


def _check_short_operands(spec, rng):
    """Every b below 16, the operands the product by shifts takes, in
    both argument orders, against a random and the all-ones a."""
    m, f = spec.degree, spec.reduction_poly
    for a in (rng.getrandbits(m), (1 << m) - 1):
        A = spec.element(a)
        for b in range(16):
            B = spec.element(b)
            want = _ref_mulmod(A.value, B.value, f)
            assert ff_mul(A, B).value == ff_mul(B, A).value == want, (a, b)


@pytest.mark.parametrize("name", _BINARY_PRESETS)
def test_binary_presets_short_operands_match_bit_serial_oracle(name):
    _check_short_operands(PRESETS[name].curve.field, seeded(16))


_DENSE63 = 0xcff07a8df17fd375   # irreducible, 41 terms, z^62 among them


def test_dense_degree_63_field_matches_bit_serial_oracle():
    spec = FieldSpec.binary(63, _DENSE63)
    rng = seeded(63)
    _check_short_operands(spec, rng)
    for _ in range(50):
        _check_against_oracle(spec, rng.getrandbits(63), rng.getrandbits(63),
                              rng.getrandbits(189))
    top = (1 << 63) - 1
    _check_against_oracle(spec, top, top, (1 << 189) - 1)


@pytest.mark.parametrize("m,f,shape", [
    (7, 0b10010001, 2),                        # z^7 + z^4 + 1: 2d = m + 1
    (63, 1 << 63 | 0b11, 2),                   # binary63
    *((*_named_poly(name), 4) for name in ("B-163", "B-283", "B-571")),
    (*_named_poly("B-409"), 2),
    (*_named_poly("sect239"), None),           # 2 * 158 > 239 + 1
    (63, _DENSE63, None),
    (8, 0b100011011, 4),                       # z^8 + z^4 + z^3 + z + 1
    (8, 0b110001011, None),                    # z^8 + z^7 + z^3 + z + 1
    # reducible shapes that no field has still reduce, by the table
    (8, 0b100000001, None), (8, 0b100000111, None), (8, 0b100000110, None),
])
def test_each_reduction_shape_matches_long_division(m, f, shape):
    """The trinomial and pentanomial folds and the byte table, each on
    0, values below z^m and values up to z^(3m)."""
    low = _fold_exponents(m, f)
    assert (None if low is None else len(low)) == shape
    reduce = _reducer(m, f)
    rng = seeded(m)
    xs = [0, 1, (1 << m) - 1, 1 << m, (1 << 3 * m) - 1]
    xs += [rng.getrandbits(m) for _ in range(10)]
    xs += [rng.getrandbits(rng.randrange(m, 3 * m + 1)) for _ in range(40)]
    for x in xs:
        assert reduce(x) == _naive_pmod(x, f), hex(x)


def _ben_or_irreducible(f):
    # Ben-Or: f of degree m is irreducible iff it has no common factor
    # with z^(2^d) - z for any d <= m/2; squaring spreads the bits apart
    m = f.bit_length() - 1
    t = 0b10
    for _ in range(m // 2):
        t = _naive_pmod(int("0".join(bin(t)[2:]), 2), f)
        a, b = f, t ^ 0b10
        while b:
            a, b = b, _naive_pmod(a, b)
        if a != 1:
            return False
    return m >= 1


def _sparse_irreducible(rng, m, weights, tops):
    """A random irreducible polynomial z^m + ... + 1 with 1 or 3 middle
    terms, none above z^top: every trinomial is tried once, pentanomials
    4m times, for each number of middle terms in `weights` and then each
    bound in `tops`, until one is irreducible."""
    for n in weights:
        for top in tops:
            if top < n:
                continue
            exponents = range(1, top + 1)
            draws = ([[k] for k in rng.sample(exponents, top)] if n == 1
                     else [rng.sample(exponents, 3) for _ in range(4 * m)])
            for middle in draws:
                f = 1 << m | sum(1 << e for e in middle) | 1
                if _ben_or_irreducible(f):
                    return f
    raise AssertionError(f"no irreducible polynomial of degree {m} found")


# each draw searches for an irreducible polynomial of degree up to 600,
# which can take a second
@settings(_PROPERTY, max_examples=15)
@given(m=st.integers(2, 600), pentanomial=st.booleans(), low=st.booleans(),
       seed=st.integers(0, 2**32))
def test_sparse_fields_match_bit_serial_oracle(m, pentanomial, low, seed):
    """Random irreducible trinomials and pentanomials: with `low`, the
    middle terms are first sought at or below z^((m+1)/2), where the
    reduction folds; a degree without such a polynomial moves on to
    wider middle terms, then to the other weight."""
    rng = seeded(seed)
    f = _sparse_irreducible(rng, m, (3, 1) if pentanomial else (1, 3),
                            ((m + 1) // 2, m - 1) if low else (m - 1,))
    spec = FieldSpec.binary(m, f)
    for _ in range(3):
        a, b = rng.getrandbits(m), rng.getrandbits(m)
        _check_against_oracle(spec, a, b, rng.getrandbits(3 * m))
    _check_short_operands(spec, rng)
    top = (1 << m) - 1
    _check_against_oracle(spec, top, top, (1 << 3 * m) - 1)


@pytest.mark.parametrize("name", _NAMED_POLYS)
def test_named_polynomials_match_bit_serial_oracle(name):
    m, f = _named_poly(name)
    assert (_fold_exponents(m, f) is None) == (name == "sect239")
    spec = FieldSpec.binary(m, f)
    rng = seeded(m)
    _check_short_operands(spec, rng)
    for _ in range(20):
        _check_against_oracle(spec, rng.getrandbits(m), rng.getrandbits(m),
                              rng.getrandbits(3 * m))
    top = (1 << m) - 1
    _check_against_oracle(spec, top, top, (1 << 3 * m) - 1)


# ---------------------------------------------------------------------------
# primality beyond the reach of Miller-Rabin to fixed bases

_P256 = 2**256 - 2**224 + 2**192 + 2**96 - 1
_SECP256K1 = 2**256 - 2**32 - 977


def test_strong_pseudoprimes_rejected_crypto_primes_accepted():
    # the least composites passing Miller-Rabin to every prime base up to
    # 37 and up to 41: 399165290221 * 798330580441 and
    # 1287836182261 * 2575672364521
    for n in (318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec.prime(n)
    for p in (_P256, _SECP256K1):
        assert FieldSpec.prime(p).modulus == p


def _strong_prp(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(
        pow(x, 2 ** i, n) == n - 1 for i in range(1, s))


def test_is_prime_on_either_side_of_the_exact_bound():
    # below the bound the 12 bases decide alone: 3215031751 is a strong
    # pseudoprime to 2, 3, 5 and 7, caught by 11
    assert all(_strong_prp(3215031751, a) for a in (2, 3, 5, 7))
    assert not fields._is_prime(3215031751)
    # the bound passes all 12 bases, so from there on only base 2 and
    # the strong Lucas test stand between a composite and a field
    n = fields._MR_EXACT_BOUND
    assert all(_strong_prp(n, a) for a in fields._MR_BASES)
    assert not fields._is_prime(n)
    assert fields._is_prime(2 ** 2048 - 1557)


def test_strong_lucas_against_sieve():
    # the odd composites below 20000 that pass are exactly the strong
    # Lucas pseudoprimes listed in OEIS A217255
    limit = 20000
    composite = bytearray(limit)
    for d in range(2, int(limit ** 0.5) + 1):
        composite[d * d::d] = b"\x01" * len(range(d * d, limit, d))
    passed = {n for n in range(5, limit, 2)
              if _is_strong_lucas_prp(n) and composite[n]}
    assert passed == {5459, 5777, 10877, 16109, 18971}
    assert all(_is_strong_lucas_prp(n) for n in range(5, limit, 2)
               if not composite[n])
