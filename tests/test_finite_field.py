import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from quadcomp import (Alphabet, FieldElement, FiniteField, NotOddPrime, InvalidDegree, Poly,
                      is_prime)
from quadcomp import finite_field


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert not is_prime(1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_constructor_rejects_bad_parameters():
    with pytest.raises(NotOddPrime):
        FiniteField(2)
    with pytest.raises(NotOddPrime):
        FiniteField(9)
    with pytest.raises(NotOddPrime):
        FiniteField(-3)
    with pytest.raises(InvalidDegree):
        FiniteField(3, 0)


def test_f9_modulus_is_smallest_irreducible():
    field = FiniteField(3, 2)
    assert field.q == 9
    # x^2 + 1 is the lexicographically first monic irreducible over F_3
    assert field.modulus == (1, 0, 1)
    # so the basis element t satisfies t^2 = -1
    t = field.elem((0, 1))
    assert t * t == field.elem(2)


def test_f25_f27_f49_moduli():
    assert FiniteField(5, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert FiniteField(3, 3).modulus == (1, 0, 2, 1)  # x^3 + 2x^2 + 1
    assert FiniteField(7, 2).modulus == (1, 0, 1)  # x^2 + 1; -1 nonsquare mod 7


# (modulus, reduction rows) as trial division by every monic polynomial of
# degree <= k/2 chose them; the Rabin search must find the same
PINNED = {
    (3, 4): ((1, 0, 1, 1, 1), ((2, 0, 2, 2), (1, 2, 1, 0), (0, 1, 2, 1))),
    (3, 5): ((1, 0, 0, 0, 2, 1),
             ((2, 0, 0, 0, 1), (2, 2, 0, 0, 1), (2, 2, 2, 0, 1), (2, 2, 2, 2, 1))),
    (7, 3): ((1, 0, 1, 1), ((6, 0, 6), (1, 6, 1))),
    (101, 4): ((1, 0, 0, 1, 1), ((100, 0, 0, 100), (1, 100, 0, 1), (100, 1, 100, 100))),
}


def test_pinned_moduli_and_reduction_rows():
    for (p, k), want in PINNED.items():
        field = FiniteField(p, k)
        assert (field.modulus, field._red) == want, (p, k)


def test_modulus_is_the_first_candidate_without_a_small_factor():
    # every candidate before the modulus, in lexicographic order low degree
    # first, has a monic factor of degree <= k/2, and the modulus has none
    for p in (3, 5, 7):
        prime = FiniteField(p)
        for k in (2, 3, 4):
            modulus = FiniteField(p, k).modulus
            divisors = [Poly(prime, tail + (1,))
                        for e in range(1, k // 2 + 1) for tail in product(range(p), repeat=e)]
            for tail in product(range(p), repeat=k):
                f = Poly(prime, tail + (1,))
                has_factor = any(divmod(f, g)[1].is_zero for g in divisors)
                if tail + (1,) == modulus:
                    assert not has_factor, (p, k)
                    break
                assert has_factor, (p, k, tail)


def test_large_characteristic_fields_build():
    # -1 is a nonsquare mod p = 3 mod 4, so x^2 + 1 comes first
    field = FiniteField(1_000_003, 2)
    assert field.modulus == (1, 0, 1)
    assert field._red == ((1_000_002, 0),)
    # t^q = t, and t lies in no proper subfield, when the modulus is irreducible
    for p, k in ((100_003, 2), (1_000_003, 3), (2 ** 31 - 1, 5)):
        field = FiniteField(p, k)
        assert len(field.modulus) == k + 1 and field.modulus[0] != 0
        t = field.raw_from_index(p)
        assert field.rpow(t, field.q) == t != field.rpow(t, p ** (k - 1))


def field_axioms(field):
    elems = list(field.elements())
    assert len(elems) == field.q
    zero, one = field.zero, field.one
    for x in elems:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        if x != zero:
            assert x * x.inverse() == one
    for x in elems:
        for y in elems:
            assert x + y == y + x
            assert x * y == y * x
            for z in elems:
                assert (x + y) * z == x * z + y * z


def test_field_axioms_small():
    field_axioms(FiniteField(3))
    field_axioms(FiniteField(5))
    field_axioms(FiniteField(3, 2))


def test_square_counts():
    # exactly (q-1)/2 nonzero squares in F_q for odd q
    for field in (FiniteField(3), FiniteField(5), FiniteField(7), FiniteField(3, 2), FiniteField(11)):
        squares = {(x * x).val for x in field.elements() if x != field.zero}
        assert len(squares) == (field.q - 1) // 2
        nonsquares = [x for x in field.elements() if x.is_nonsquare()]
        assert len(nonsquares) == (field.q - 1) // 2
        assert all(x.val not in squares for x in nonsquares)
        assert not field.zero.is_nonsquare()


def test_nonsquare_character_is_multiplicative():
    for field in (FiniteField(7), FiniteField(3, 2)):
        def chi(x):
            if x == field.zero:
                return 0
            return -1 if x.is_nonsquare() else 1
        for x in field.elements():
            for y in field.elements():
                assert chi(x * y) == chi(x) * chi(y)


def test_minus_one_square_iff_q_1_mod_4():
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        field = FiniteField(p, k)
        minus_one = -field.one
        assert minus_one.is_nonsquare() == (field.q % 4 == 3)


def test_pow_and_inverse():
    field = FiniteField(7)
    x = field.elem(3)
    assert x ** 0 == field.one
    assert x ** 6 == field.one  # Fermat
    assert x ** -1 == x.inverse() == 1 / x
    assert x / x == 1 and x * (2 / x) == 2 and x / 3 == field.one
    assert x == 3 and x == 10 and x != 4
    assert (x ** 2) * (x ** 3) == x ** 5
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_extension_power_basis_arithmetic():
    field = FiniteField(3, 2)
    t = field.elem((0, 1))
    x = field.elem((1, 2))  # 1 + 2t
    assert x == field.one + t + t
    assert x * x == field.elem((1 - 4, 4))  # (1+2t)^2 = 1 + 4t + 4t^2 = -3 + 4t
    # Frobenius: x^3 is the conjugate 1 - 2t
    assert x ** 3 == field.elem((1, 1))
    assert 1 / t == -t and (x / t) * t == x and t != 1 and field.elem(2) == -1


def test_element_indexing_round_trip():
    for field in (FiniteField(5), FiniteField(3, 2)):
        for i, x in enumerate(field.elements()):
            assert x.index() == i
            assert field.raw_from_index(i) == x.val


def test_parse_and_format():
    f5 = FiniteField(5)
    assert f5.parse_element("7") == f5.elem(2)
    assert f5.parse_element("-1") == f5.elem(4)
    assert str(f5.elem(3)) == "3"
    f9 = FiniteField(3, 2)
    assert f9.parse_element("[1,2]") == f9.elem((1, 2))
    assert f9.parse_element("4") == f9.elem(1)
    assert str(f9.elem((1, 2))) == "[1,2]"
    with pytest.raises(ValueError):
        f9.parse_element("[1,2,3]")
    with pytest.raises(ValueError):
        f9.parse_element("[1,2")


def test_parse_refuses_an_empty_coordinate():
    f9 = FiniteField(3, 2)
    assert f9.parse_element("[ 1 , 2 ]") == f9.parse_element(" [1,2] ") == f9.elem((1, 2))
    for text in ("[1,,2]", "[1,2,]", "[,1,2]", "[1,]", "[,2]", "[]", "[ , ]"):
        with pytest.raises(ValueError):
            f9.parse_element(text)
    with pytest.raises(ValueError):
        FiniteField(5).parse_element("[]")


def test_mixed_field_operations_rejected():
    a = FiniteField(3).elem(1)
    b = FiniteField(5).elem(1)
    with pytest.raises(ValueError):
        a + b
    assert FiniteField(3) != FiniteField(5)
    assert FiniteField(3) == FiniteField(3)
    assert FieldElement(FiniteField(3), 2) == FiniteField(3).elem(-1)


def euler(field, u) -> bool:
    """Whether u is a nonsquare, by Euler's criterion in the generic
    arithmetic: int powers for k == 1, _wide and _fold otherwise."""
    if u == field.zero_raw:
        return False
    if field.k == 1:
        return pow(u, (field.p - 1) // 2, field.p) != 1
    return field._power(u, (field.q - 1) // 2) != field.one_raw


def test_nonsquare_by_table_and_by_euler_agree_with_powering():
    # 65,521 and 251^2 = 63,001 are at most 2^16, so they read the nonsquare
    # list and the log parity; 65,537 and 257^2 = 66,049 are past it
    for p, k, tabulated in ((65521, 1, True), (65537, 1, False), (251, 2, True), (257, 2, False)):
        field = FiniteField(p, k)
        assert (field.q <= finite_field._TABLE_LIMIT) == tabulated
        rng = random.Random(field.q)
        sample = [0, 1, field.q - 1] + [rng.randrange(field.q) for _ in range(300)]
        for u in map(field.raw_from_index, sample):
            assert field.is_nonsquare_raw(u) == euler(field, u), (field, u)
        assert (field._nonsquare_list is not None) == (tabulated and k == 1), field
        assert (field._log is not None) == (tabulated and k > 1), field


# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318_665_857_834_031_151_167_461  # 399,165,290,221 * 798,330,580,441
PSI_13 = 3_317_044_064_679_887_385_961_981  # 1,287,836,182,261 * 2,575,672,364,521


def test_is_prime_is_exact_below_psi_13_and_refuses_from_it():
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    assert PSI_13 == 1_287_836_182_261 * 2_575_672_364_521
    assert not is_prime(PSI_12)
    with pytest.raises(NotOddPrime):
        FiniteField(PSI_12)
    for n in (PSI_13, PSI_13 + 2, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(n)


def raw_fold(field, us, vs):
    acc = field.zero_raw
    for u, v in zip(us, vs):
        acc = field.radd(acc, field.rmul(u, v))
    return acc


def raw_chain_fold(field, v, pairs):
    for a, b in pairs:
        s = field.rsub(v, a)
        v = field.rsub(field.rmul(s, s), b)
    return v


def test_rdot_and_rchain_agree_with_the_field_operations():
    fields = [FiniteField(3), FiniteField(3, 2), FiniteField(5, 2), FiniteField(3, 3),
              FiniteField(3, 4), FiniteField(3, 5), FiniteField(2 ** 31 - 1)]
    for field in fields:
        rng = random.Random(field.q)
        zero, top = field.zero_raw, field.raw_from_index(field.q - 1)

        def pick():
            return field.raw_from_index(rng.randrange(field.q))

        for n in (0, 1, 2, 3, 7, 20):
            us = [pick() for _ in range(n)]
            vs = [pick() for _ in range(n)]
            assert field.rdot(us, vs) == raw_fold(field, us, vs), (field, n)
            assert field.rdot(us, [zero] * n) == zero
            assert field.rdot([top] * n, [top] * n) == raw_fold(field, [top] * n, [top] * n)
        for n in range(21):
            for _ in range(3):
                v, pairs = pick(), [(pick(), pick()) for _ in range(n)]
                assert field.rchain(v, pairs) == raw_chain_fold(field, v, pairs), (field, n)
            for v, pair in [(zero, (zero, zero)), (top, (zero, top)), (zero, (top, zero)),
                            (top, (top, top))]:
                assert field.rchain(v, [pair] * n) == raw_chain_fold(field, v, [pair] * n)


# F_3, F_9, F_25, F_27, F_81, F_125 and F_{7^3}
STEP_FIELDS = [(3, 1), (3, 2), (5, 2), (3, 3), (3, 4), (5, 3), (7, 3)]


def step_pairs(field):
    """The maximal alphabet's raw pairs, and a dozen seeded ones with a != 0."""
    rng = random.Random(field.q)
    raws = list(field.iter_raw())
    seeded = {(rng.choice(raws[1:]), rng.choice(raws)) for _ in range(12)}
    return [[(field.zero_raw, b) for b in raws], sorted(seeded)]


def test_step_table_equals_rchain_at_every_letter_and_element():
    for p, k in STEP_FIELDS:
        field = FiniteField(p, k)
        raws = list(field.iter_raw())
        for pairs in step_pairs(field):
            table = field.step_table(pairs)
            assert table.dtype == np.int32 and table.shape == (len(pairs), field.q)
            want = [[field.index_of_raw(field.rchain(v, [pair])) for v in raws] for pair in pairs]
            assert table.tolist() == want, field


def test_step_table_is_the_same_across_chunks(monkeypatch):
    # at 1 byte every squaring and every letter is a chunk of its own
    fields = [FiniteField(5, 2), FiniteField(7), FiniteField(3, 4)]
    pairs = {field: step_pairs(field)[1] + step_pairs(field)[0] for field in fields}
    want = {field: field.step_table(pairs[field]) for field in fields}
    monkeypatch.setattr(finite_field, "_GATHER_BYTES", 1)
    for field in fields:
        assert np.array_equal(field.step_table(pairs[field]), want[field])
    assert FiniteField(3).step_table([]).shape == (0, 3)


def test_step_table_temporaries_stay_within_the_gather_bound(monkeypatch):
    field = FiniteField(1021)
    pairs = [(field.zero_raw, b) for b in field.iter_raw()]
    gather = 1 << 20
    monkeypatch.setattr(finite_field, "_GATHER_BYTES", gather)
    tracemalloc.start()
    try:
        table = field.step_table(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table itself, then one chunk's digits and their indices
    assert peak < table.nbytes + 3 * gather


def test_step_table_refuses_fields_past_the_square_table():
    with pytest.raises(ValueError, match="step tables need q <= 65536"):
        FiniteField(65537).step_table([(0, 0)])


def test_square_set_and_nonsquare_mask_hold_the_squares():
    for p, k in ((3, 1), (3, 2), (3, 3), (31, 2), (13, 3), (3, 7), (1021, 1)):
        field = FiniteField(p, k)
        raws = list(field.iter_raw())
        assert not field.is_nonsquare_raw(field.one_raw)
        squares = frozenset(field.rmul(v, v) for v in raws)
        if k == 1:
            assert field._nonsquare_list == [v not in squares for v in raws]
            assert field._nonsquare_list is field.nonsquare_list()
        else:  # the even powers of the primitive element, and zero
            assert field._nonsquare_list is None
            assert frozenset(field._exp[: field.q - 1 : 2]) | {field.zero_raw} == squares
        mask = field.nonsquare_mask()
        assert mask is field.nonsquare_mask() and not mask.flags.writeable
        euler = [v != field.zero_raw and field.rpow(v, (field.q - 1) // 2) != field.one_raw
                 for v in raws]
        assert mask.tolist() == euler


# F_9, F_25, F_27, F_49, F_81, F_125 and F_{7^3}: every pair is checked
LOG_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (7, 3)]
# the largest q <= _TABLE_LIMIT = 2^16 with k > 1, the largest k, and the
# largest q with k = 3
LARGEST_LOG_FIELDS = [(251, 2), (3, 10), (37, 3)]


def generic_dot(field, us, vs):
    acc = [0] * (2 * field.k - 1)
    for u, v in zip(us, vs):
        field._wide(u, v, acc)
    return field._fold(acc)


def generic_chain(field, v, pairs):
    for a, b in pairs:
        s = field.rsub(v, a)
        v = field.rsub(field._mul(s, s), b)
    return v


def test_log_tables_are_built_on_first_product_and_not_before():
    for p, k in ((3, 2), (5, 2), (3, 3), (3, 10), (251, 2)):
        for first in ("rmul", "is_nonsquare_raw"):
            field = FiniteField(p, k)
            FieldElement(field, field.one_raw)
            field.step_table([(field.one_raw, field.zero_raw)])
            field.nonsquare_mask()
            assert len(field.nonsquare_list()) == len(Alphabet.maximal(field)) == field.q
            assert field._log is None and field._exp is None, field
            if first == "rmul":
                field.rmul(field.one_raw, field.one_raw)
            else:
                field.is_nonsquare_raw(field.one_raw)
            assert field.q <= finite_field._TABLE_LIMIT
            assert field._log is not None and field._exp is not None, (field, first)


def test_letter_steps_share_the_field_nonsquare_list():
    for field in (FiniteField(29), FiniteField(3, 3)):
        maximal, small = Alphabet.maximal(field), Alphabet(field, list(Alphabet.maximal(field))[:2])
        assert field._nonsquare_list is None and field._log is None
        assert maximal.steps.nonsquare is field.nonsquare_list() is small.steps.nonsquare
        assert field._nonsquare_list == field.nonsquare_mask().tolist()
        assert field._log is None


def test_primitive_element_is_the_first_of_full_order():
    for p, k in LOG_FIELDS:
        field = FiniteField(p, k)
        field.rmul(field.one_raw, field.one_raw)
        n = field.q - 1
        exp, log = field._exp, field._log
        assert len(exp) == 2 * n and exp[:n] == exp[n:] and exp[0] == field.one_raw
        assert len(log) == n and all(exp[i] == u for u, i in log.items())
        g = exp[1]
        for i in range(1, field.index_of_raw(g) + 1):
            u, order = field.raw_from_index(i), 1
            power = u
            while power != field.one_raw:
                power, order = field._mul(power, u), order + 1
            assert (order == n) == (u == g), (field, i)


def test_log_table_arithmetic_equals_the_generic_arithmetic():
    for p, k in LOG_FIELDS:
        field = FiniteField(p, k)
        raws = list(field.iter_raw())
        zero, one, q = field.zero_raw, field.one_raw, field.q
        for u, v in product(raws, repeat=2):
            want = field._mul(u, v)
            assert field.rmul(u, v) == want == field.rdot([u], [v]), (field, u, v)
            assert field.rdot([u, v, zero], [v, v, u]) == generic_dot(field, [u, v], [v, v])
        assert field._log is not None
        for u in raws:
            assert field.is_nonsquare_raw(u) == (u != zero and field._power(u, (q - 1) // 2) != one)
            for e in (0, 1, q - 1, q, 10 ** 6):
                assert field.rpow(u, e) == field._power(u, e), (field, u, e)
            if u != zero:
                inverse = field._power(u, q - 2)
                assert field.rinv(u) == field.rpow(u, -1) == inverse
                assert field.rpow(u, -10 ** 6) == field._power(inverse, 10 ** 6)
        rng = random.Random(q)
        for n in (0, 1, 2, 5, 13):
            us, vs = rng.choices(raws, k=n), rng.choices(raws, k=n)
            assert field.rdot(us, vs) == generic_dot(field, us, vs)
            for _ in range(20):
                v, pairs = rng.choice(raws), [tuple(rng.choices(raws, k=2)) for _ in range(n)]
                assert field.rchain(v, pairs) == generic_chain(field, v, pairs), (field, n)


def test_log_tables_at_the_largest_fields_inside_the_bound():
    for p, k in LARGEST_LOG_FIELDS:
        field = FiniteField(p, k)
        assert field.q <= finite_field._TABLE_LIMIT
        rng = random.Random(field.q)
        raws = [field.raw_from_index(rng.randrange(field.q)) for _ in range(200)]
        zero, q = field.zero_raw, field.q
        for u, v in zip(raws, raws[1:]):
            assert field.rmul(u, v) == field._mul(u, v)
            assert field.rpow(u, 12345) == field._power(u, 12345)
            assert field.is_nonsquare_raw(u) == euler(field, u)
            if u != zero:
                assert field.rinv(u) == field._power(u, q - 2)
        assert field.rdot(raws, raws[::-1]) == generic_dot(field, raws, raws[::-1])
        pairs = list(zip(raws[::2], raws[1::2]))
        assert field.rchain(raws[0], pairs) == generic_chain(field, raws[0], pairs)
        assert len(field._log) == q - 1


def test_fields_past_the_log_bound_keep_the_generic_arithmetic(monkeypatch):
    field = FiniteField(257, 2)  # 66,049 > 2^16
    assert field.q > finite_field._TABLE_LIMIT
    u, v = (3, 256), (254, 7)
    assert field.rmul(u, v) == field._mul(u, v) and field.rpow(u, 500) == field._power(u, 500)
    assert field.rinv(u) == field._power(u, field.q - 2)
    assert field.is_nonsquare_raw(u) == (field._power(u, (field.q - 1) // 2) != field.one_raw)
    assert field._log is None and field._exp is None and field._nonsquare_list is None
    # at a lowered bound, F_25 takes the same generic path, and F_9 the tables;
    # the masks are taken first, since step tables obey the same bound
    f9, f25 = FiniteField(3, 2), FiniteField(5, 2)
    masks = {field: field.nonsquare_mask().tolist() for field in (f9, f25)}
    monkeypatch.setattr(finite_field, "_TABLE_LIMIT", 9)
    for field in (f9, f25):
        raws = list(field.iter_raw())
        for u, v in product(raws, repeat=2):
            assert field.rmul(u, v) == field._mul(u, v)
        assert [field.is_nonsquare_raw(u) for u in raws] == masks[field]
        pairs = list(zip(raws, raws[::-1]))
        assert field.rchain(raws[1], pairs) == generic_chain(field, raws[1], pairs)
    assert f9._log is not None and f25._log is None


def test_zero_in_the_log_table_arithmetic():
    for p, k in LOG_FIELDS[:3]:
        field = FiniteField(p, k)
        zero, one = field.zero_raw, field.one_raw
        for u in field.iter_raw():
            assert field.rmul(u, zero) == field.rmul(zero, u) == zero
            assert field.rdot([u, zero], [zero, u]) == zero
        assert field.rdot([], []) == zero
        assert field.rpow(zero, 0) == one and field.rpow(zero, 1) == field.rpow(zero, 7) == zero
        assert not field.is_nonsquare_raw(zero)
        assert field.rchain(zero, [(zero, zero)] * 3) == zero
        for call in (lambda: field.rinv(zero), lambda: field.rpow(zero, -1),
                     lambda: field.zero.inverse(), lambda: field.one / field.zero):
            with pytest.raises(ZeroDivisionError):
                call()


# extension fields with q^2 <= _TABLE_LIMIT = 2^16, F_243 the largest
INDEX_TABLE_FIELDS = [(3, 2), (5, 2), (3, 3), (3, 5)]


def test_index_tables_equal_the_raw_arithmetic():
    for p, k in INDEX_TABLE_FIELDS:
        field = FiniteField(p, k)
        tables = field.index_tables()
        assert field.q ** 2 <= finite_field._TABLE_LIMIT and field.index_tables() is tables
        raws = list(field.iter_raw())
        index = field.index_of_raw
        assert tables.raws == raws and tables.index == {u: i for i, u in enumerate(raws)}
        assert tables.add == [[index(field.radd(u, v)) for v in raws] for u in raws], field
        assert tables.mul == [[index(field.rmul(u, v)) for v in raws] for u in raws], field
        assert tables.neg == [index(field.rneg(u)) for u in raws]
        assert tables.nonsquare == [field.is_nonsquare_raw(u) for u in raws]
        assert {type(c) for c in tables.add[-1] + tables.mul[-1] + tables.neg + list(raws[-1])} == {int}


def test_index_tables_only_for_extension_fields_with_q_squared_inside_the_bound():
    # F_289 = 17^2 and F_729 = 3^6 lie past the bound; a prime field's
    # residues are its indices
    for p, k in ((17, 2), (3, 6), (3, 1), (29, 1), (251, 1), (65521, 1)):
        field = FiniteField(p, k)
        field.rmul(field.one_raw, field.one_raw)
        assert field.index_tables() is None and field._index_tables is None, field


def test_index_tables_are_built_on_first_use_only():
    for p, k in INDEX_TABLE_FIELDS:
        field = FiniteField(p, k)
        FieldElement(field, field.one_raw)
        assert Alphabet.maximal(field).steps is not None
        field.nonsquare_list()
        field.step_table([(field.one_raw, field.zero_raw)])
        field.rmul(field.one_raw, field.one_raw)
        assert field._index_tables is None, field
        field.index_tables()
        assert field._index_tables is not None
