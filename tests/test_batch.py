import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from quadcomp import (
    IRREDUCIBLE,
    REDUCIBLE,
    Alphabet,
    FiniteField,
    MonicQuad,
    Poly,
    chain_irreducible,
    compose_levels,
    build_interim,
    count_accepted,
    is_prime,
    letter_chain,
    pi,
    rabin_irreducible_2power,
    rabin_is_irreducible,
    reverse_subset_prune,
)
from quadcomp import test_decomposable as decomposable_verdict
from quadcomp import _batch
from quadcomp._batch import _Modulus, _embed, from_polys, to_poly

F3 = FiniteField(3)
F5 = FiniteField(5)
F7 = FiniteField(7)
F9 = FiniteField(3, 2)


def all_monic(field, degree):
    for tail in product(field.iter_raw(), repeat=degree):
        yield Poly(field, tail + (field.one_raw,), raw=True)


def test_matches_scalar_rabin_exhaustively():
    for field in (F3, F5, F7, F9):
        for degree in (2, 4) if field.k == 1 else (2,):
            polys = list(all_monic(field, degree))
            got = rabin_irreducible_2power(field, from_polys(field, polys))
            expect = np.array([rabin_is_irreducible(p) for p in polys])
            assert np.array_equal(got, expect), (field.q, degree)


def test_matches_scalar_rabin_sampled_high_degree():
    rng = random.Random(23)
    for field in (F3, F5, F9):
        raws = list(field.iter_raw())
        for degree in (8, 16, 32):
            polys = [
                Poly(field, tuple(rng.choice(raws) for _ in range(degree))
                     + (field.one_raw,), raw=True)
                for _ in range(12)
            ]
            got = rabin_irreducible_2power(field, from_polys(field, polys))
            expect = np.array([rabin_is_irreducible(p) for p in polys])
            assert np.array_equal(got, expect), (field.q, degree)


def test_unsupported_extension_fields():
    F25 = FiniteField(5, 2)  # modulus x^2 + x + 1, not x^2 + 1
    F27 = FiniteField(3, 3)
    for field in (F25, F27):
        poly = Poly(field, (field.zero_raw, field.zero_raw, field.one_raw), raw=True)
        with pytest.raises(ValueError):
            rabin_irreducible_2power(field, from_polys(field, [poly]))


def test_degree_validation():
    with pytest.raises(ValueError):
        rabin_irreducible_2power(F5, from_polys(F5, [Poly.parse(F5, "1,1,0,1")]))
    with pytest.raises(ValueError):
        rabin_irreducible_2power(F5, from_polys(F5, [Poly.parse(F5, "1,1")]))


def test_non_monic_rows_are_refused():
    rows = from_polys(F5, [Poly.parse(F5, "1,0,1")])
    rows[:, -1] = 2
    with pytest.raises(ValueError, match="monic"):
        rabin_irreducible_2power(F5, rows)


def test_from_polys_validation():
    with pytest.raises(ValueError):
        from_polys(F5, [])
    with pytest.raises(ValueError):
        from_polys(F5, [Poly.parse(F5, "1,0,2")])  # not monic
    with pytest.raises(ValueError):
        from_polys(F5, [Poly.parse(F5, "1,0,1"), Poly.parse(F5, "1,0,0,0,1")])
    with pytest.raises(ValueError):
        from_polys(F5, [Poly.parse(F3, "1,0,1")])


def test_round_trip_through_rows():
    polys = [Poly.parse(F5, "3,3,1"), Poly.parse(F5, "2,0,1"), Poly.parse(F5, "4,4,1")]
    arr = from_polys(F5, polys)
    assert [to_poly(F5, row) for row in arr] == polys
    t = F9.elem((0, 1))
    poly = (Poly.x(F9) + Poly.constant(F9, t)) * (Poly.x(F9) - Poly.constant(F9, t))
    arr = from_polys(F9, [poly])
    assert to_poly(F9, arr[0]) == poly


ROUND_TRIP_FIELDS = (F3, FiniteField(1_000_003), F9, FiniteField(1_000_003, 2))


def one_element_embed(field, raw):
    """One raw element as a balanced float or complex scalar, element by
    element: the reference for the vectorized _embed."""
    p = field.p
    if field.k == 1:
        v = raw % p
        return float(v - p if v > p // 2 else v)
    c0, c1 = raw[0] % p, raw[1] % p
    if c0 > p // 2:
        c0 -= p
    if c1 > p // 2:
        c1 -= p
    return complex(c0, c1)


def nested_embed(field, nested):
    """one_element_embed over nested lists of raw elements."""
    if isinstance(nested, list):
        return [nested_embed(field, item) for item in nested]
    return one_element_embed(field, nested)


def edge_raws(field):
    """Raw elements whose coordinates sit on both sides of (p-1)/2, the
    largest balanced residue, and at 0 and p - 1."""
    half = (field.p - 1) // 2
    pairs = ((half, half + 1), (half + 1, half), (field.p - 1, 0), (0, field.p - 1), (1, half))
    return [field.elem(list(pair[: field.k])).val for pair in pairs]


def test_from_polys_and_to_poly_round_trip():
    rng = random.Random(89)
    for field in ROUND_TRIP_FIELDS:
        assert field.k == 1 or field.modulus == (1, 0, 1)
        edges, half = edge_raws(field), (field.p - 1) // 2
        for width in (3, 17, 65):
            polys = [random_poly(field, rng, width, monic=True) for _ in range(6)]
            polys += [Poly(field, [edges[(i + shift) % len(edges)] for i in range(width - 1)]
                           + [field.one_raw], raw=True) for shift in range(len(edges))]
            arr = from_polys(field, polys)
            assert arr.dtype == (np.complex128 if field.k == 2 else np.float64)
            assert arr.shape == (len(polys), width)
            flat = arr.view(np.float64)
            assert flat.max() == half and flat.min() == -half, (field.q, width)
            assert [to_poly(field, row) for row in arr] == polys, (field.q, width)
        assert to_poly(field, []) == Poly.zero(field)


def test_embed_matches_the_one_element_form():
    """In value and in dtype, for one element, a row of them and a matrix."""
    rng = random.Random(97)
    for field in ROUND_TRIP_FIELDS:
        dtype, p = _batch._dtype(field), field.p
        raws = [edge_raws(field)] + [[field.raw_from_index(rng.randrange(field.q))
                                      for _ in range(5)] for _ in range(3)]
        if field.k == 1:
            raws.append([-1, p, p + 2, -p - 1, 2 * p - 1])  # unreduced ints
        for nested in (raws[0][0], raws[0], raws):
            got = _embed(nested, p, dtype)
            want = np.array(nested_embed(field, nested))
            assert got.dtype == want.dtype and got.shape == want.shape, (field.q, nested)
            assert np.array_equal(got, want), (field.q, nested)


def test_to_poly_over_f9_accepts_a_real_row():
    want = Poly(F9, [F9.elem(2), F9.elem(1), F9.one])
    assert to_poly(F9, np.array([-1.0, 1.0, 1.0])) == want
    assert to_poly(F9, [2.0, 1.0, 1.0]) == want
    assert to_poly(F9, np.array([-1.0, 1.0, 1.0], dtype=np.complex128)) == want


def test_compose_levels_rows_follow_word_order():
    alph = Alphabet(F5, [MonicQuad(F5.elem(0), F5.elem(2)),
                         MonicQuad(F5.elem(1), F5.elem(3))])
    maximal3 = Alphabet.maximal(F3)
    maximal9 = Alphabet.maximal(F9)
    for alphabet, depth in ((alph, 3), (maximal3, 3), (maximal9, 2)):
        levels = compose_levels(alphabet.field, alphabet, depth)
        assert sorted(levels) == list(range(1, depth + 1))
        for t in range(1, depth + 1):
            arr = levels[t]
            assert arr.shape == (len(alphabet) ** t, 2**t + 1)
            for r, word in enumerate(product(range(len(alphabet)), repeat=t)):
                assert to_poly(alphabet.field, arr[r]) == pi(word, alphabet)


def test_batch_count_matches_automaton():
    mx = Alphabet.maximal(F3)
    dfa = reverse_subset_prune(build_interim(mx))
    levels = compose_levels(F3, mx, 4)
    verdicts = rabin_irreducible_2power(F3, levels[4])
    assert int(verdicts.sum()) == count_accepted(dfa, 4) == 10


def balanced_rows(field, polys, width):
    arr = np.zeros((len(polys), width), dtype=np.complex128 if field.k == 2 else np.float64)
    for r, poly in enumerate(polys):
        for c, raw in enumerate(poly.vals):
            arr[r, c] = _embed(raw, field.p, arr.dtype)
    return arr


def random_poly(field, rng, length, monic=False):
    vals = [field.raw_from_index(rng.randrange(field.q)) for _ in range(length)]
    if monic:
        vals[-1] = field.one_raw
    return Poly(field, vals, raw=True)


def test_newton_reduction_is_exact():
    """Products reduced in the kernel equal Poly products reduced by divmod."""
    rng = random.Random(31)
    cases = ((F3, 64), (F3, 128), (F9, 64), (F9, 128), (FiniteField(1_000_003), 64))
    for field, d in cases:
        fs = [random_poly(field, rng, d + 1, monic=True) for _ in range(4)]
        a_polys = [random_poly(field, rng, d) for _ in fs]
        b_polys = [random_poly(field, rng, d) for _ in fs]
        mod = _Modulus(from_polys(field, fs)[:, :d], field.p)
        A = balanced_rows(field, a_polys, d)
        B = balanced_rows(field, b_polys, d)
        products = mod.mulmod(A, mod.hat(B))
        squares = mod.mulmod(A)
        for r, (f, a, b) in enumerate(zip(fs, a_polys, b_polys)):
            assert to_poly(field, products[r]) == (a * b) % f, (field.q, d, r)
            assert to_poly(field, squares[r]) == (a * a) % f, (field.q, d, r)
            assert np.all(np.abs(products[r].real) <= field.p // 2)


def chain_words(alphabet, rng, length, count, irreducible):
    """Seeded words whose chain criterion verdict is `irreducible`; the
    irreducible ones grow letter by letter inside the prefix-closed language."""
    words = []
    while len(words) < count:
        word = ()
        while len(word) < length:
            options = [j for j in range(len(alphabet))
                       if not irreducible or chain_irreducible(word + (j,), alphabet).irreducible]
            if not options:
                break
            word += (rng.choice(options),)
        if len(word) == length and chain_irreducible(word, alphabet).irreducible == irreducible:
            words.append(word)
    return words


def test_matches_scalar_rabin_degree_64_and_128():
    rng = random.Random(37)
    for field in (F3, F9):
        maximal = Alphabet.maximal(field)
        for level in (6, 7):
            polys = [pi(w, maximal) for want in (True, False)
                     for w in chain_words(maximal, rng, level, 3, want)]
            polys += [random_poly(field, rng, 2**level + 1, monic=True) for _ in range(3)]
            got = rabin_irreducible_2power(field, from_polys(field, polys))
            expect = np.array([rabin_is_irreducible(p) for p in polys])
            assert np.array_equal(got, expect), (field.q, level)
            assert got[:3].all() and not got[3:6].any()


def test_chain_certified_irreducibles_at_large_p():
    """p = 1,000,003 at d = 64 is inside the exact range: 64 * 500001^2 < 2^44."""
    field = FiniteField(1_000_003)
    rng = random.Random(41)
    polys = []
    for irreducible in [True] * 20 + [False] * 5:
        while True:
            letters = []
            for _ in range(6):
                while True:
                    quad = MonicQuad(field.elem(rng.randrange(field.p)),
                                     field.elem(rng.randrange(field.p)))
                    if not irreducible or letter_chain(letters + [quad]).irreducible:
                        break
                letters.append(quad)
            if letter_chain(letters).irreducible == irreducible:
                break
        polys.append(pi(tuple(range(6)), Alphabet(field, letters)))
    got = rabin_irreducible_2power(field, from_polys(field, polys))
    assert got[:20].all()
    assert not got[20:].any()


def chained_letters(field, rng, length, witness):
    """Random letters whose chain is irreducible (witness None) or first
    fails at the 1-based index `witness`."""
    letters = []
    while len(letters) < length:
        quad = MonicQuad(*[field.elem([rng.randrange(field.p) for _ in range(field.k)])
                           for _ in range(2)])
        at = len(letters) + 1
        if witness is not None and at > witness:
            letters.append(quad)  # the chain has failed already
        elif letter_chain(letters + [quad]).irreducible == (at != witness):
            letters.append(quad)
    return letters


def scalar_verdicts(field, rng, length, witnesses):
    """Compositions of chained letters, each checked by the chain criterion,
    decomposition and scalar Rabin."""
    polys = []
    for witness in witnesses:
        letters = chained_letters(field, rng, length, witness)
        assert letter_chain(letters).witness == witness
        poly = pi(tuple(range(length)), Alphabet(field, letters))
        status = IRREDUCIBLE if witness is None else REDUCIBLE
        assert decomposable_verdict(poly).status == status, witness
        assert rabin_is_irreducible(poly) == (witness is None), witness
        polys.append(poly)
    return polys


def test_four_oracles_agree_over_a_large_degree_2_extension():
    """Over F_{1,000,003^2} the modulus is x^2 + 1, so the batched kernel
    applies; at d = 16 its products stay below 16 * 2 * 500001^2 < 2^52."""
    field = FiniteField(1_000_003, 2)
    assert field.modulus == (1, 0, 1)
    assert 16 * 2 * ((field.p - 1) // 2) ** 2 < 2 ** 52
    witnesses = [None] * 4 + [1, 2, 3, 4]
    polys = scalar_verdicts(field, random.Random(16), 4, witnesses)
    got = rabin_irreducible_2power(field, from_polys(field, polys))
    assert got.tolist() == [w is None for w in witnesses]


def test_three_oracles_agree_over_a_large_degree_3_extension():
    field = FiniteField(1_000_003, 3)
    polys = scalar_verdicts(field, random.Random(8), 3, [None] * 3 + [1, 2, 3])
    with pytest.raises(ValueError, match="batched kernels support"):
        from_polys(field, polys)


def test_degree_1024_in_linear_memory():
    """A (rows, d-1, d) reduction tensor alone would take 32 MiB here; the
    kernel's peak stays a small multiple of rows * d."""
    maximal = Alphabet.maximal(F3)
    rng = random.Random(43)
    polys = [pi(w, maximal) for want in (True, False)
             for w in chain_words(maximal, rng, 10, 2, want)]
    arr = from_polys(F3, polys)
    tracemalloc.start()
    try:
        got = rabin_irreducible_2power(F3, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [True, True, False, False]
    assert peak < 8 * 2**20


def split_products(field, rng, d, count):
    """Products of two distinct irreducibles of degree d/2, shifted
    compositions of accepted words: x^(q^d) = x holds modulo each product,
    so only the d/2 check rejects it."""
    maximal = Alphabet.maximal(field)
    elements = list(field.elements())
    level = (d // 2).bit_length() - 1
    polys = []
    while len(polys) < count:
        words = chain_words(maximal, rng, level, 2, True) if level else [(), ()]
        u, v = [pi(w, maximal).shift_argument(rng.choice(elements)) for w in words]
        if u != v:
            polys.append(u * v)
    return polys


def test_frobenius_matrix_path_matches_power_path(monkeypatch):
    rng = random.Random(17)
    grid = [(field, 2**m) for field in (F3, F5, F7, F9) for m in range(1, 7)]
    grid += [(FiniteField(p), d) for p in (11, 13) for d in (16, 32)]
    for field, d in grid:
        polys = [random_poly(field, rng, d + 1, monic=True) for _ in range(12)]
        polys += split_products(field, rng, d, 3)
        if d >= 4:
            maximal = Alphabet.maximal(field)
            words = chain_words(maximal, rng, d.bit_length() - 1, 3, True)
            polys += [pi(w, maximal) for w in words]
        verdicts = []
        for use_matrix in (False, True):
            monkeypatch.setattr(_batch, "_matrix_path", lambda q, d, m=use_matrix: m)
            verdicts.append(rabin_irreducible_2power(field, from_polys(field, polys)).tolist())
        power, matrix = verdicts
        assert power == matrix, (field.q, d)
        assert not any(matrix[12:15]) and all(matrix[15:]), (field.q, d)


def test_frobenius_matrix_chunk_edges(monkeypatch):
    """Row counts around the matrix path's chunk give the verdicts of the
    rows checked one at a time."""
    rng = random.Random(19)
    for field, d in ((F5, 8), (F9, 4)):
        step = 16
        monkeypatch.setattr(_batch, "_Q_ENTRIES", step * d * d)
        polys = [random_poly(field, rng, d + 1, monic=True) for _ in range(step + 1)]
        polys[::3] = split_products(field, rng, d, len(polys[::3]))
        arr = from_polys(field, polys)
        one_by_one = [rabin_irreducible_2power(field, arr[r : r + 1])[0] for r in range(len(arr))]
        assert any(one_by_one) and not all(one_by_one)
        for rows in (1, step - 1, step, step + 1):
            got = rabin_irreducible_2power(field, arr[:rows])
            assert got.tolist() == one_by_one[:rows], (field.q, rows)


def test_path_selection():
    for q in (3, 5, 7, 9):
        for d in (2, 4, 8, 16, 32):
            assert _batch._matrix_path(q, d), (q, d)
    assert not _batch._matrix_path(1_000_003, 64)
    assert not _batch._matrix_path(1_000_003**2, 16)
    assert not _batch._matrix_path(3, 1024)


def test_frobenius_matrix_path_in_bounded_memory():
    """F_7's 16,807 level-5 rows at d = 32 take the matrix path in chunks of
    at most _Q_ENTRIES entries of Q; one unchunked Q would take 137 MB."""
    maximal = Alphabet.maximal(F7)
    arr = compose_levels(F7, maximal, 5)[5]
    assert arr.shape == (16807, 33) and _batch._matrix_path(7, 32)
    tracemalloc.start()
    try:
        got = rabin_irreducible_2power(F7, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(got.sum()) == 1008
    assert peak < 16 * 2**20


BIG = FiniteField(1_000_003)


def composition_rows(field, rng, d):
    """One chain-certified irreducible of degree d, one product of two
    distinct ones of degree d/2 (x^(q^(d/2)) = x modulo it, so only the d/2
    check rejects it), and one random monic row."""
    if field.q > 1024:  # no maximal alphabet: compose random chained letters
        m = d.bit_length() - 1
        letters = chained_letters(field, rng, m, None)
        irreducible = pi(tuple(range(m)), Alphabet(field, letters))
        half = [pi(tuple(range(m - 1)), Alphabet(field, chained_letters(field, rng, m - 1, None)))
                for _ in range(2)]
        split = half[0] * half[1]
    else:
        maximal = Alphabet.maximal(field)
        irreducible = pi(chain_words(maximal, rng, d.bit_length() - 1, 1, True)[0], maximal)
        split = split_products(field, rng, d, 1)[0]
    return [irreducible, split, random_poly(field, rng, d + 1, monic=True)]


def test_composition_power_path_matches_scalar_rabin():
    """The power path reaches x^(q^(d/2)) by compositions, Y(Y) = x^(q^(2j))
    for Y = x^(q^j); its verdicts equal scalar Rabin's.  At p = 1,000,003 and
    d = 256 scalar Rabin takes seconds a row, so there it checks the split
    row alone and the chain criterion vouches for the irreducible one."""
    rng = random.Random(53)
    grid = [(F7, 128), (F9, 128), (FiniteField(101), 128), (BIG, 64), (BIG, 128), (BIG, 256)]
    for field, d in grid:
        assert not _batch._matrix_path(field.q, d)
        polys = composition_rows(field, rng, d)
        got = rabin_irreducible_2power(field, from_polys(field, polys)).tolist()
        assert got[:2] == [True, False], (field.q, d)
        checked = [1] if d == 256 else [0, 1, 2]
        assert [got[i] for i in checked] == [rabin_is_irreducible(polys[i]) for i in checked], \
            (field.q, d)


def test_power_path_verdicts_do_not_depend_on_where_composition_starts(monkeypatch):
    """All composition (x^q, then m - 1 compositions), all binary powering
    (x^(q^(d/2)) directly) and the chosen mix give the same verdicts."""
    rng = random.Random(59)
    for field, d in ((F3, 128), (F3, 256), (F9, 128), (BIG, 64)):
        polys = composition_rows(field, rng, d) + composition_rows(field, rng, d)
        polys += [random_poly(field, rng, d + 1, monic=True) for _ in range(4)]
        arr = from_polys(field, polys)
        verdicts = [rabin_irreducible_2power(field, arr).tolist()]
        for reach in (1, d // 2):
            monkeypatch.setattr(_batch, "_power_reach", lambda q, d, j=reach: j)
            verdicts.append(rabin_irreducible_2power(field, arr).tolist())
        monkeypatch.undo()
        assert verdicts[0] == verdicts[1] == verdicts[2], (field.q, d)
        assert verdicts[0][:2] == verdicts[0][3:5] == [True, False], (field.q, d)


def test_power_reach_counts_products():
    """Binary powering goes on while doubling j that way, j*log2(q)
    squarings, costs no more than one composition, k - 1 + d/k - 1 products."""
    assert _batch._block(512) == _batch._block(1024) == 32 and _batch._block(128) == 16
    assert _batch._power_reach(3, 512) == 32  # 25.4 <= 46 < 50.7
    assert _batch._power_reach(3, 1024) == 64  # 50.7 <= 62 < 101
    assert _batch._power_reach(1_000_003, 64) == 1  # 19.9 > 14: x^q, then compositions
    assert _batch._power_reach(9, 128) == 8  # 12.7 <= 22 < 25.4
    assert _batch._power_reach(3, 4) == 2  # d/2 at most: no composition before the last


def test_composition_power_path_in_bounded_memory():
    """64 rows at p = 1,000,003 and d = 1024 take one power-path chunk.  Its
    compositions keep k = 32 powers of the (64, 1024) rows, 16 MiB of
    float64, and a few (64, d) rows and (64, 2d) transforms besides; the
    whole call stays under 32 MiB."""
    rng = random.Random(61)
    d = 1024
    polys = composition_rows(BIG, rng, d)[:1]
    polys += [random_poly(BIG, rng, d + 1, monic=True) for _ in range(63)]
    arr = from_polys(BIG, polys)
    tracemalloc.start()
    try:
        got = rabin_irreducible_2power(BIG, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] and not got[1:].any()
    assert peak < 32 * 2**20


def matrix_dtypes(monkeypatch):
    """Record the dtype of every Frobenius matrix the kernel builds."""
    seen = []
    real = _batch._frobenius_matrices

    def spy(f_low, q, p):
        qt = real(f_low, q, p)
        seen.append(qt.dtype)
        return qt

    monkeypatch.setattr(_batch, "_frobenius_matrices", spy)
    return seen


def forced_verdicts(field, arr, use_matrix):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_batch, "_matrix_path", lambda q, d: use_matrix)
        return rabin_irreducible_2power(field, arr).tolist()


def test_float32_matrix_path_on_both_sides_of_its_bound(monkeypatch):
    """The matrix path runs in float32 (complex64), so it is taken only while
    every sum, c*d*((p-1)/2)^2, stays below 2^22: F_509 at d = 64 (64 *
    254^2 = 4,129,024) takes it, F_521 (64 * 260^2 = 4,326,400) takes the
    power path, and the F_{p^2} that take it, here F_{19^2} and F_{43^2},
    are far under the bound.  Where float32 is exact both forced paths give
    the same verdicts; forcing the matrix path past the bound is refused."""
    rng = random.Random(67)
    grid = [(FiniteField(509), 64, True), (FiniteField(521), 64, False)]
    grid += [(FiniteField(p, 2), d, True) for p, d in ((19, 32), (19, 64), (43, 64))]
    for field, d, under in grid:
        assert _batch._matrix_path(field.q, d) == under
        c = 2 if field.k == 2 else 1
        assert (c * d * ((field.p - 1) // 2) ** 2 < 2**22) == under
        polys = split_products(field, rng, d, 2)
        maximal = Alphabet.maximal(field)
        polys += [pi(w, maximal) for w in chain_words(maximal, rng, d.bit_length() - 1, 2, True)]
        polys += [random_poly(field, rng, d + 1, monic=True) for _ in range(8)]
        arr = from_polys(field, polys)
        seen = matrix_dtypes(monkeypatch)
        verdicts = [rabin_irreducible_2power(field, arr).tolist()]
        assert set(seen) == ({np.dtype(np.complex64 if c == 2 else np.float32)} if under
                             else set()), field.q
        assert verdicts[0][:4] == [False, False, True, True], field.q
        if under:
            verdicts += [forced_verdicts(field, arr, m) for m in (False, True)]
            assert all(v == verdicts[0] for v in verdicts), field.q
            monkeypatch.setattr(_batch, "_F32_EXACT", 0)  # as if past the bound
        with pytest.raises(ValueError, match="2\\^22"):
            forced_verdicts(field, arr, True)
        monkeypatch.undo()
    # over F_{p^2} a sum adds real and imaginary products: 2 * 64 * 183^2 >= 2^22
    field = FiniteField(367, 2)
    arr = from_polys(field, [random_poly(field, rng, 65, monic=True)])
    with pytest.raises(ValueError, match="2\\^22"):
        forced_verdicts(field, arr, True)


def test_path_rule_sends_large_q_to_the_power_path():
    """Building Q takes q - 1 shift steps a row, so past _MATRIX_Q_PER_D * d
    the power path takes the call: q = 1,021 and 4,999 at d = 64 (where the
    matrix path was measured 1.5x and 5x slower), but not q = 509.  Both
    forced paths agree on either side of the edge."""
    assert _batch._matrix_path(509, 64)
    assert not _batch._matrix_path(1021, 64) and not _batch._matrix_path(4999, 64)
    rng = random.Random(73)
    d = 2
    edge = _batch._MATRIX_Q_PER_D * d
    below = max(p for p in range(3, edge + 1) if is_prime(p))
    above = min(p for p in range(edge + 1, 2 * edge) if is_prime(p))
    for p, matrix in ((below, True), (above, False)):
        field = FiniteField(p)
        assert _batch._matrix_path(p, d) == matrix
        polys = [random_poly(field, rng, d + 1, monic=True) for _ in range(40)]
        arr = from_polys(field, polys)
        want = [rabin_is_irreducible(poly) for poly in polys]
        assert any(want) and not all(want), p
        assert rabin_irreducible_2power(field, arr).tolist() == want, p
        for m in (False, True):
            assert forced_verdicts(field, arr, m) == want, (p, m)


def test_matrix_path_builds_q_in_float32_only(monkeypatch):
    """Forced onto every shape of test_frobenius_matrix_path_matches_power_path,
    the matrix path builds no float64 or complex128 Q."""
    rng = random.Random(79)
    grid = [(field, 2**m) for field in (F3, F5, F7, F9) for m in range(1, 7)]
    grid += [(FiniteField(p), d) for p in (11, 13) for d in (16, 32)]
    seen = matrix_dtypes(monkeypatch)
    for field, d in grid:
        polys = [random_poly(field, rng, d + 1, monic=True) for _ in range(3)]
        forced_verdicts(field, from_polys(field, polys), True)
    assert len(seen) == len(grid)
    assert set(seen) == {np.dtype(np.float32), np.dtype(np.complex64)}


def test_compose_levels_refuses_past_the_float64_bound():
    """Rows are exact while c*2^max_len*((p-1)/2)^2 < 2^52, and refused past
    it: p = 1,000,003 gives every row of 3 letters to level 7 (about 2^45),
    while p = 33,554,393 at level 6 (2^54) and p = 2^31 - 1 at level 1
    (2^61) are refused; unchecked, they gave 36 of 729 and 3 of 3 rows of a
    3-letter alphabet wrong."""
    rng = random.Random(83)
    big = FiniteField(1_000_003)
    letters = [MonicQuad(big.elem(rng.randrange(big.p)), big.elem(rng.randrange(big.p)))
               for _ in range(3)]
    alphabet = Alphabet(big, letters)
    levels = compose_levels(big, alphabet, 7)
    for t in range(1, 8):
        for r, word in enumerate(product(range(3), repeat=t)):
            assert to_poly(big, levels[t][r]) == pi(word, alphabet), word
    for p, max_len in ((33_554_393, 6), (2**31 - 1, 1)):
        field = FiniteField(p)
        alphabet = Alphabet(field, [MonicQuad(field.elem(1), field.elem(2))])
        with pytest.raises(ValueError, match="2\\^52"):
            compose_levels(field, alphabet, max_len)


def test_balance_keeps_float32_and_is_exact_below_2_to_22():
    """In float32 the reciprocal of p carries a relative error of 2^-24, so
    v/p rounds to the right quotient while |v| < 2^22: every residue there
    is exact, for real and complex entries alike."""
    rng = np.random.default_rng(71)
    near = np.arange(2**22 - 4096, 2**22, dtype=np.int64)
    for p in (3, 5, 509, 521, 4093, 65521):
        v = np.concatenate([near, -near, rng.integers(-(2**22) + 1, 2**22, 20000)])
        want = (v + p // 2) % p - p // 2
        got = _batch._balance(v.astype(np.float32), p)
        assert got.dtype == np.float32
        assert np.array_equal(got.astype(np.int64), want), p
        z = _batch._balance((v + 1j * v[::-1]).astype(np.complex64), p)
        assert z.dtype == np.complex64
        assert np.array_equal(z.real.astype(np.int64), want), p
        assert np.array_equal(z.imag.astype(np.int64), want[::-1]), p
