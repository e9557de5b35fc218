import random
from itertools import product

import pytest

from quadcomp import (
    BothZero,
    ConstantPolynomial,
    FiniteField,
    Poly,
    discriminant,
    gcd,
    is_prime,
    powmod_frobenius,
    rabin_is_irreducible,
    resultant,
)
from quadcomp.polynomial import _Reducer, _kron_mul, _powmod

F3 = FiniteField(3)
F5 = FiniteField(5)
F9 = FiniteField(3, 2)


def test_construction_trims_and_parses():
    p = Poly(F5, (1, 0, 0))
    assert p.degree == 0
    assert Poly.zero(F5).degree == -1
    assert Poly.zero(F5).is_zero
    assert Poly.x(F5).csv() == "0,1"
    assert Poly.parse(F5, "2, 0, 1") == Poly(F5, (2, 0, 1))
    assert Poly.parse(F9, "[1,2],[0,1]").coeff(1) == F9.elem((0, 1))


def test_arithmetic_frozen_examples():
    x = Poly.x(F5)
    assert ((x + 1) * (x - 1)).csv() == "4,0,1"  # x^2 - 1
    assert ((x + 2) ** 2).csv() == "4,4,1"
    f = Poly.parse(F5, "3,1,2")
    g = Poly.parse(F5, "1,4")
    assert (f + g).csv() == "4,0,2"
    assert (f * g).csv() == "3,3,1,3"
    assert (f - f).is_zero
    assert (-f).csv() == "2,4,3" and (f + -f).is_zero


def test_divmod_and_mod():
    f = Poly.parse(F5, "1,0,0,0,0,1")  # x^5 + 1
    g = Poly.parse(F5, "3,0,1")  # x^2 - 2
    q, r = divmod(f, g)
    assert q * g + r == f
    assert f // g == q
    assert r.degree < g.degree
    # x^5 mod (x^2 - 2) = 4x
    assert (Poly.parse(F5, "0,0,0,0,0,1") % g).csv() == "0,4"
    with pytest.raises(ZeroDivisionError):
        divmod(f, Poly.zero(F5))


def test_call_and_compose():
    g = Poly.parse(F5, "3,3,1")  # (x-1)^2 - 3 = x^2 + 3x + 3
    assert g(F5.elem(2)) == F5.elem(3)
    assert g(F5.elem(3)) == F5.elem(1)
    f = Poly.parse(F5, "3,0,1")
    fg = f.compose(g)
    for x in F5.elements():
        assert fg(x) == f(g(x))
    # composition is associative
    h = Poly.parse(F5, "1,2")
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_extension_field_multiplication():
    t = F9.elem((0, 1))
    f = Poly(F9, (t, F9.one))  # x + t
    g = Poly(F9, (-t, F9.one))  # x - t
    assert (f * g) == Poly(F9, (F9.one, F9.zero, F9.one))  # x^2 - t^2 = x^2 + 1


def test_derivative_and_gcd():
    f = Poly.parse(F5, "4,0,1")  # x^2 - 1 = (x-1)(x+1)
    assert f.derivative().csv() == "0,2"
    g = Poly.parse(F5, "4,1")  # x - 1
    assert gcd(f, g) == g.monic()
    # gcd of coprime polynomials is 1
    assert gcd(f, Poly.parse(F5, "3,1")).degree == 0
    with pytest.raises(BothZero):
        gcd(Poly.zero(F5), Poly.zero(F5))
    # squarefree iff gcd(f, f') constant
    sq = g * g
    assert gcd(sq, sq.derivative()).degree > 0


def trial_division_irreducible(f):
    """Oracle: check for factors by exhaustive monic trial division."""
    field = f.field
    d = f.degree
    raws = list(field.iter_raw())
    for e in range(1, d // 2 + 1):
        for tail in product(raws, repeat=e):
            den = Poly(field, tuple(tail) + (field.one_raw,), raw=True)
            if (f % den).is_zero:
                return False
    return True


def test_rabin_matches_trial_division():
    for field in (F3, F5):
        raws = list(field.iter_raw())
        for d in (1, 2, 3, 4):
            for tail in product(raws, repeat=d):
                f = Poly(field, tuple(tail) + (field.one_raw,), raw=True)
                assert rabin_is_irreducible(f) == trial_division_irreducible(f), f.csv()


def test_rabin_f9_quadratics():
    # x^2 - b irreducible over F_9 iff b is a nonsquare
    for b in F9.elements():
        f = Poly(F9, (-b, F9.zero, F9.one))
        assert rabin_is_irreducible(f) == b.is_nonsquare()


def test_rabin_rejects_constants():
    with pytest.raises(ConstantPolynomial):
        rabin_is_irreducible(Poly.constant(F5, F5.elem(2)))


def test_powmod_frobenius():
    f = Poly.parse(F5, "3,0,1")  # x^2 - 2, irreducible
    y = powmod_frobenius(1, f)  # x^5 mod f
    assert y == Poly.parse(F5, "0,4")
    assert powmod_frobenius(2, f) == Poly.x(F5) % f  # x^(q^2) = x on F_25


def test_resultant_and_discriminant():
    # disc((x-a)^2 - b) = 4b
    for field in (F3, F5, F9):
        for a in field.elements():
            for b in field.elements():
                f = Poly(field, (a * a - b, -(a + a), field.one))
                assert discriminant(f) == field.elem(4 % field.p) * b
    # disc(x^2 - 2) over F_5 is 8 = 3
    assert discriminant(Poly.parse(F5, "3,0,1")) == F5.elem(3)
    # resultant(f, g) = prod of g over roots of f, for monic f
    f = Poly.parse(F5, "4,0,1")  # roots 1, 4
    g = Poly.parse(F5, "1,1")
    assert resultant(f, g) == g(F5.elem(1)) * g(F5.elem(4))


def test_discriminant_zero_iff_repeated_root():
    for tail in product(range(5), repeat=2):
        f = Poly(F5, tail + (1,), raw=True)
        repeated = gcd(f, f.derivative()).degree > 0
        assert (discriminant(f) == F5.zero) == repeated


def test_shift_argument():
    f = Poly.parse(F5, "2,0,1,0,1")
    g = f.shift_argument(F5.elem(2))  # f(x + 2)
    for x in F5.elements():
        assert g(x) == f(x + F5.elem(2))
    assert f.shift_argument(F5.zero) == f


def test_monic_normalization():
    f = Poly.parse(F5, "1,2,3")
    m = f.monic()
    assert m.is_monic
    assert m * Poly.constant(F5, f.leading()) == f


def schoolbook(a, b):
    """Reference product: one field multiplication per coefficient pair."""
    field = a.field
    out = [field.zero_raw] * (len(a.vals) + len(b.vals) - 1)
    for i, x in enumerate(a.vals):
        for j, y in enumerate(b.vals):
            out[i + j] = field.radd(out[i + j], field.rmul(x, y))
    return Poly(field, out, raw=True)


def random_poly(field, length, rng):
    vals = [field.raw_from_index(rng.randrange(field.q)) for _ in range(length - 1)]
    lead = field.raw_from_index(rng.randrange(1, field.q))
    return Poly(field, vals + [lead], raw=True)


def test_kronecker_product_matches_schoolbook():
    F25 = FiniteField(5, 2)
    F27 = FiniteField(3, 3)
    wide = FiniteField(10007, 2)  # slots of 33 * 2 * 10006^2 > 2^32 need 8 bytes
    assert F25.modulus != (1, 0, 1)
    assert 33 * 2 * (wide.p - 1) ** 2 > 1 << 32
    rng = random.Random(7)
    for field in (F9, F25, F27, wide):
        for la in (1, 2, 3, 33):
            for lb in (1, 2, 3, 33):
                a, b = random_poly(field, la, rng), random_poly(field, lb, rng)
                expect = schoolbook(a, b)
                assert Poly(field, _kron_mul(a.vals, b.vals, field), raw=True) == expect
                assert (a * b).vals == expect.vals, (field, la, lb)
            a = random_poly(field, la, rng)
            assert Poly(field, _kron_mul(a.vals, a.vals, field), raw=True) == schoolbook(a, a)
            assert (a * a).vals == schoolbook(a, a).vals, (field, la)


def test_kronecker_product_beyond_native_slots():
    p = next(n for n in range(1 << 40, (1 << 40) + 1000) if is_prime(n))
    field = FiniteField(p)
    rng = random.Random(8)
    for la, lb in ((2, 3), (33, 17), (5, 5)):
        a, b = random_poly(field, la, rng), random_poly(field, lb, rng)
        assert Poly(field, _kron_mul(a.vals, b.vals, field), raw=True) == schoolbook(a, b)
        assert (a * b).vals == schoolbook(a, b).vals


def power_by_divmod(base, e, f):
    """Reference: square-and-multiply, every product reduced by divmod."""
    acc, sq = Poly.constant(base.field, 1) % f, base % f
    while e:
        if e & 1:
            acc = (acc * sq) % f
        sq = (sq * sq) % f
        e >>= 1
    return acc


def test_newton_powmod_matches_square_and_reduce():
    rng = random.Random(9)
    for degree in (1, 2, 3, 5, 16, 33):
        f = random_poly(F9, degree + 1, rng)
        base = random_poly(F9, rng.randrange(1, 2 * degree + 3), rng)
        red = _Reducer(f)
        for e in (0, 1, 2, 9, 10, 81, 1000, 3**20 + 5):
            assert _powmod(base, e, f, red) == power_by_divmod(base, e, f), (degree, e)
        assert _powmod(f * base, 5, f, red).is_zero
        y = Poly.x(F9) % f
        for steps in range(4):
            assert powmod_frobenius(steps, f) == y, (degree, steps)
            y = power_by_divmod(y, F9.q, f)


def coefficientwise(f, g, op):
    """Reference sum or difference: pad both operands, one op per index."""
    field = f.field
    n = max(len(f.vals), len(g.vals))
    a = list(f.vals) + [field.zero_raw] * (n - len(f.vals))
    b = list(g.vals) + [field.zero_raw] * (n - len(g.vals))
    return Poly(field, [op(x, y) for x, y in zip(a, b)], raw=True)


def test_add_and_sub_match_coefficientwise_results():
    rng = random.Random(11)
    for field in (F3, F9):
        c = field.raw_from_index(rng.randrange(1, field.q))
        const = Poly(field, [c], raw=True)
        short, long = random_poly(field, 3, rng), random_poly(field, 9, rng)
        # same length and leading coefficient, so the leading terms cancel
        twin = Poly(field, list(random_poly(field, 8, rng).vals) + [long.vals[-1]], raw=True)
        zero = Poly.zero(field)
        pairs = [(const, long), (long, const), (short, long), (long, short),
                 (long, twin), (twin, long), (long, long), (zero, long),
                 (long, zero), (zero, zero), (const, zero)]
        for f, g in pairs:
            assert (f + g).vals == coefficientwise(f, g, field.radd).vals, (field, f, g)
            assert (f - g).vals == coefficientwise(f, g, field.rsub).vals, (field, f, g)
        assert (long - twin).degree < long.degree
        assert (long - long).is_zero
        element = const.coeff(0)  # a FieldElement operand, on either side
        assert (long + element).vals == coefficientwise(long, const, field.radd).vals
        assert (long - element).vals == coefficientwise(long, const, field.rsub).vals
        assert (element - long).vals == coefficientwise(const, long, field.rsub).vals
        assert (element + long).vals == coefficientwise(const, long, field.radd).vals
