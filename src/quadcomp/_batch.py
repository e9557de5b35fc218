"""Vectorized kernels for bulk irreducibility checks.

Coefficients live in numpy arrays, one polynomial per row, low degree
first, stored as balanced residues (integers in [-(p-1)/2, (p-1)/2])
inside float64 entries for prime fields, or complex128 entries for
F_{p^2} with modulus x^2 + 1 (the basis element t satisfies t^2 = -1, so
c0 + c1*t multiplies exactly like the complex number c0 + c1*i).  The
dtype is the mode: _dtype sets it from the field at the public entries,
and every function below them reads it off the arrays it is given.

Products are computed by FFT between balanced rows of at most d entries,
so every coefficient of a product is bounded by d*((p-1)/2)^2, twice that
for F_{p^2}.  Rounding back to integers is exact while that bound stays
well below 2^52: at d = 64 this holds for p = 1,000,003 (about 2^44) and
fails for p = 33,554,393 (about 2^54).

Reduction modulo a monic degree-d row polynomial f is Newton-inverse
(Barrett) reduction: g = rev(f)^-1 mod x^(d-1) is computed once per chunk
by Newton iteration, and a row P of degree <= 2d-2 is reduced with two
products against cached transforms, the quotient as a slice of
P_top * rev(g) and the remainder as P - Q*f modulo x^d - 1.

For degrees d = 2^m the Rabin irreducibility test needs no gcds:
f is irreducible iff x^(q^d) = x and x^(q^(d/2)) != x modulo f, because
x^(q^d) = x forces f squarefree with factor degrees dividing d, and any
proper factor degree would divide d/2.  The kernel reaches x^(q^j) one of
two ways (_matrix_path):

- The power path, for large q, d > 64 or sums past float32's exact
  range.  As the coefficients lie in F_q, Y = x^(q^j) mod f gives
  Y(Y) = x^(q^(2j)) mod f (von zur Gathen and Shoup), and a Brent-Kung
  composition takes about 2*sqrt(d) products.
  So x^(q^j) comes from binary powering with Newton reduction while j is
  small enough that doubling it costs fewer squarings than a composition
  (_power_reach: j = 1 at large q), and compositions double j to d/2;
  one more gives x^(q^d).  A chunk holds O(rows * d) numbers: at most
  _BLOCK powers of its rows.
- The Frobenius-matrix path (Berlekamp's Q), for d <= 64, q at most
  _MATRIX_Q_PER_D * d, and sums exact in float32.  As the coefficients
  lie in F_q, g^q mod f = Q g, where column i of Q is x^(iq) mod f; so
  x^(q^j) = Q^j x takes j mat-vecs, d in all.  Every sum stays below
  c*d*((p-1)/2)^2 as in an FFT product, c = 2 for F_{p^2}; the path runs
  in float32 (complex64), which halves the bytes each mat-vec reads, and
  only while that bound is below _F32_EXACT (p up to 509 at d = 64 and
  719 at d = 32).  A chunk holds at most 2^18 entries of Q, so
  rows = 2^18 // d^2, whatever d.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from .finite_field import FiniteField
from .monoid import Alphabet
from .polynomial import Poly

_CHUNK = 32768  # entries (rows * d) per power-path chunk: small enough to stay in cache
_Q_ENTRIES = 1 << 18  # Frobenius matrix entries (rows * d^2) per matrix-path chunk
# Building Q takes q - 1 shift steps a row, so past about 32*d the power
# path's compositions are faster (both paths forced at 1 and 256 rows, on a
# 2-core x86-64 host with numpy 2.4 on OpenBLAS): see _matrix_path.
_MATRIX_Q_PER_D = 32
# Up to d = 64 a row's mat-vec stays below the sizes at which OpenBLAS
# spreads one call over threads; on a loaded host those calls were seen
# taking milliseconds instead of microseconds.
_MATRIX_MAX_D = 64
# Most powers of Y that _compose_mod keeps (see _block): 32 from d = 512 on,
# 16 MiB at 64 rows of d = 1024; past that, memory stays linear in d.
_BLOCK = 32
# The matrix path runs in float32 and so only while its sums stay below
# this.  _balance divides by p through a reciprocal rounded to the array's
# dtype.  In float32 (24-bit significand) the error in v/p, about
# |v|/p * 2^-23, stays below the 1/(2p) gap to the nearest rounding
# boundary, so v rounds to its residue, only while |v| < 2^22.
_F32_EXACT = 1 << 22


def _sum_bound(q, d):
    """c*d*((p-1)/2)^2, c = 2 over F_{p^2}: the bound on every sum of d
    products of balanced residues over F_q, q = p or p^2."""
    r = math.isqrt(q)
    p, c = (r, 2) if r * r == q else (q, 1)
    return c * d * ((p - 1) // 2) ** 2


def _dtype(field: FiniteField):
    """The dtype of a field's rows: float64 over F_p, complex128 over F_{p^2}
    with modulus x^2 + 1; any other field is refused with ValueError."""
    if field.k == 1:
        return np.float64
    if field.k == 2 and tuple(field.modulus) == (1, 0, 1):
        return np.complex128
    raise ValueError(
        "batched kernels support prime fields and degree-2 extensions "
        "with modulus x^2 + 1 only"
    )


def _balance(arr, p):
    """Round an array to integers and balance them mod p (a new array), in
    its own dtype; exact while every entry is below _F32_EXACT in float32
    and 2^52 in float64.

    Complex entries are handled as (real, imag) pairs of floats, which
    needs the last axis to be contiguous."""
    flat = np.rint(arr.view(arr.real.dtype))
    t = flat * (1.0 / p)
    np.rint(t, out=t)
    t *= p
    flat -= t
    return flat.view(arr.dtype)


def _embed(raws, p, dtype):
    """Nested raw field elements as an array of balanced entries of dtype:
    ints over F_p, and (c0, c1) pairs over F_{p^2}, whose last axis becomes
    c0 + c1*i."""
    v = np.array(raws, dtype=np.int64) % p
    out = np.where(v > p // 2, v - p, v).astype(np.float64).view(dtype)
    return out[..., 0] if np.iscomplexobj(out) else out


def _fwd(P, n):
    return np.fft.fft(P, n=n, axis=1) if np.iscomplexobj(P) else np.fft.rfft(P, n=n, axis=1)


def _inv(T, n, like):
    """Inverse transform of length n, real or complex as the rows `like` (rfft
    and fft both give 2 bins at n = 2), within rounding error of integers."""
    return np.fft.ifft(T, axis=1) if np.iscomplexobj(like) else np.fft.irfft(T, n=n, axis=1)


def _mul(A, B, p):
    """Row-wise products as plain polynomials (no modulus), balanced;
    B = None squares A."""
    out_len = A.shape[1] + (A if B is None else B).shape[1] - 1
    n = 1 << (out_len - 1).bit_length()
    a_hat = _fwd(A, n)
    b_hat = a_hat if B is None else _fwd(B, n)
    return _balance(_inv(a_hat * b_hat, n, A)[:, :out_len], p)


def compose_levels(
    field: FiniteField, alphabet: Alphabet, max_len: int
) -> Dict[int, np.ndarray]:
    """Coefficient arrays of pi(w) for every word of length 1..max_len.

    Level t holds len(alphabet)^t rows; the word (j_1, ..., j_t) with j_1
    outermost sits at row sum(j_i * L^(t-i)), i.e. rows follow
    itertools.product order.  Refused with ValueError where the products'
    sums could reach 2^52, past which float64 rounds them wrongly.
    """
    dtype = _dtype(field)
    if _sum_bound(field.q, 2**max_len) >= 1 << 52:
        raise ValueError("compose_levels is exact only while c*2^max_len*((p-1)/2)^2 < 2^52")
    p = field.p
    a_vals, b_vals = _embed(alphabet.pairs, p, dtype).T
    current = np.zeros((1, 2), dtype=dtype)
    current[0, 1] = 1.0
    levels = {}
    for t in range(1, max_len + 1):
        blocks = []
        for j in range(len(alphabet)):
            shifted = current.copy()
            shifted[:, 0] -= a_vals[j]
            squared = _mul(shifted, None, p)
            squared[:, 0] -= b_vals[j]
            blocks.append(squared)
        current = _balance(np.vstack(blocks), p)
        levels[t] = current
    return levels


def _series_inverse(r, n, p):
    """r^-1 mod x^n for rows with constant term 1, by Newton iteration:
    g <- g - g*(r*g - 1) doubles the number of correct terms."""
    g = np.ones((r.shape[0], 1), dtype=r.dtype)
    m = 1
    while m < n:
        m = min(2 * m, n)
        err = _mul(r[:, :m], g, p)[:, :m]
        err[:, 0] -= 1
        step = _mul(g, err, p)[:, :m]
        g = _balance(np.pad(g, ((0, 0), (0, m - g.shape[1]))) - step, p)
    return g


class _Modulus:
    """Monic row polynomials f = x^d + f_low, prepared for Newton reduction.

    Holds the length-2d transform of rev(g), g = rev(f)^-1 mod x^(d-1), and
    the length-d transform of f mod (x^d - 1).
    """

    def __init__(self, f_low, p):
        d = f_low.shape[1]
        self.d, self.p, self.f_low = d, p, f_low
        rev_f = np.concatenate([np.ones_like(f_low[:, :1]), f_low[:, :0:-1]], axis=1)
        g = _series_inverse(rev_f, d - 1, p)
        self.g_hat = self.hat(g[:, ::-1])
        f_cyc = f_low.copy()
        f_cyc[:, 0] += 1
        self.f_hat = _fwd(_balance(f_cyc, p), d)

    def hat(self, A):
        """Length-2d transform of balanced rows of degree < d."""
        return _fwd(A, 2 * self.d)

    def mulmod(self, A, b_hat=None):
        """A * B modulo f, balanced, for balanced rows A and B given by its
        transform; b_hat = None squares A."""
        a_hat = self.hat(A)
        prod = a_hat * (a_hat if b_hat is None else b_hat)
        return self._reduce(_inv(prod, 2 * self.d, A))

    def _reduce(self, P):
        """Rows of degree <= 2d-2, integers up to rounding error, modulo f.

        With A = P[d:] balanced, the quotient is Q = (A * rev(g))[d-2:2d-3];
        the remainder has degree < d, so it equals P - Q*f mod x^d - 1.
        """
        d, p = self.d, self.p
        top = _balance(P[:, d : 2 * d - 1], p)
        quot = _inv(self.hat(top) * self.g_hat, 2 * d, P)
        quot = _balance(quot[:, d - 2 : 2 * d - 3], p)
        low = _inv(_fwd(quot, d) * self.f_hat, d, P)
        np.subtract(P[:, :d], low, out=low)
        low[:, : d - 1] += top
        return _balance(low, p)


def _mul_x(P, f_low, p):
    """x * P modulo the monic rows x^d + f_low: a shift plus one correction."""
    out = np.empty_like(P)
    out[:, 0] = 0
    out[:, 1:] = P[:, :-1]
    out -= P[:, -1:] * f_low
    return _balance(out, p)


def _pow_x(e, mod):
    """x^e modulo the row polynomials, by binary powering; multiplication
    by x is a shift plus one correction, so only squarings pay for FFTs."""
    acc = np.zeros_like(mod.f_low)
    acc[:, 1] = 1.0
    for bit in bin(e)[3:]:
        acc = mod.mulmod(acc)
        if bit == "1":
            acc = _mul_x(acc, mod.f_low, mod.p)
    return acc


def _block(d):
    """_compose_mod's block k for degree d = 2^m: 2^ceil(m/2), the power of
    2 at or above sqrt(d), at most _BLOCK."""
    return min(_BLOCK, 1 << (d.bit_length() // 2))


def _compose_mod(Y, mod):
    """Y(Y) modulo the row polynomials (Brent & Kung).

    Y is cut into blocks of k = _block(d) coefficients, each block is
    evaluated at Y as one mat-vec against the kept powers Y^0..Y^(k-1), and
    the blocks are joined by Horner in Y^k: k - 1 + d/k - 1 products instead
    of d - 1.  The powers take k * rows * d numbers.
    """
    d, p = mod.d, mod.p
    k = _block(d)
    y_hat = mod.hat(Y)
    powers = np.zeros((len(Y), k, d), dtype=Y.dtype)
    powers[:, 0, 0] = 1.0
    power = Y
    for i in range(1, k):
        powers[:, i] = power
        power = mod.mulmod(power, y_hat)
    yk_hat = mod.hat(power)

    def block(j):  # np.einsum's own loop: no BLAS threads at large k * d
        return np.einsum("rk,rkn->rn", Y[:, j : j + k], powers)

    Z = _balance(block(d - k), p)
    for j in range(d - 2 * k, -1, -k):
        Z = _balance(mod.mulmod(Z, yk_hat) + block(j), p)
    return Z


def _power_reach(q, d):
    """The j for which the power path reaches x^(q^j) by binary powering,
    before compositions double j to d/2.

    As Y = x^(q^j) gives Y(Y) = x^(q^(2j)), each doubling of j costs either
    j*log2(q) more squarings or one composition of k - 1 + d/k - 1
    products, k = _block(d); powering goes on while it is the cheaper."""
    k = _block(d)
    j = 1
    while 2 * j < d and j * math.log2(q) <= k + d // k - 2:
        j *= 2
    return j


def _rabin_power_chunk(f_low, q, p):
    mod = _Modulus(f_low, p)
    j = _power_reach(q, mod.d)
    y = _pow_x(q**j, mod)
    while 2 * j < mod.d:
        y = _compose_mod(y, mod)
        j *= 2
    x_arr = np.zeros_like(y)
    x_arr[:, 1] = 1.0
    moved = ~np.all(y == x_arr, axis=1)
    z = _compose_mod(y, mod)
    fixed = np.all(z == x_arr, axis=1)
    return fixed & moved


def _vecmat(v, M):
    """Row-wise products v @ M of (rows, 1, k) and (rows, k, n) arrays, in
    M's dtype.

    Complex rows are multiplied as [re; im] @ M viewed as floats of M's
    own precision, whose columns interleave (re, im): real matrix products
    stay on the BLAS sizes that run on one thread, where a complex mat-vec
    of 64 x 64 can wake threads that cost milliseconds a call on a loaded
    host."""
    if not np.iscomplexobj(M):
        return np.matmul(v, M)
    w = np.matmul(np.concatenate([v.real, v.imag], axis=1), M.view(M.real.dtype))
    out = np.empty((len(M), 1, M.shape[2]), dtype=M.dtype)
    out.real = w[:, :1, 0::2] - w[:, 1:, 1::2]
    out.imag = w[:, :1, 1::2] + w[:, 1:, 0::2]
    return out


def _frobenius_matrices(f_low, q, p):
    """Each row's Frobenius matrix Q, transposed: row i of the result is
    x^(iq) mod f, so a row vector g gives g^q mod f as g @ Q^T.

    Rows with iq < d are unit vectors.  The rest follow one another as
    x^(iq) = x^q * x^((i-1)q): a shift by q whose top coefficients fold back
    through x^(d+q-k), ..., x^(d+q-1) mod f, k = min(q, d), which q - 1
    steps of _mul_x from x^d reach.  The fold holds k rows, never more than
    Q, and sums k products of balanced residues."""
    rows, d = f_low.shape
    k = min(q, d)
    y = -f_low  # x^d mod f
    for _ in range(q - k):
        y = _mul_x(y, f_low, p)
    fold = np.empty((rows, k, d), dtype=f_low.dtype)
    fold[:, 0] = y
    for j in range(1, k):
        fold[:, j] = y = _mul_x(y, f_low, p)
    qt = np.zeros((rows, d, d), dtype=f_low.dtype)
    units = np.arange((d - 1) // q + 1)
    qt[:, units, units * q] = 1.0
    g = np.zeros((rows, 1, d), dtype=f_low.dtype)
    g[:, 0, units[-1] * q] = 1.0
    for i in range(len(units), d):
        col = _vecmat(g[:, :, d - k :], fold)
        col[:, :, q:] += g[:, :, : max(d - q, 0)]
        g = _balance(col, p)
        qt[:, i] = g[:, 0]
    return qt


def _rabin_matrix_chunk(f_low, q, p):
    """x^(q^j) = Q^j x by d mat-vecs in float32 (complex64), balanced after
    each, so every sum stays below _sum_bound(q, d) as in a product of the
    power path; refused with ValueError where that reaches _F32_EXACT."""
    d = f_low.shape[1]
    if _sum_bound(q, d) >= _F32_EXACT:
        raise ValueError("the matrix path is exact only while c*d*((p-1)/2)^2 < 2^22")
    f_low = f_low.astype(np.complex64 if np.iscomplexobj(f_low) else np.float32)
    qt = _frobenius_matrices(f_low, q, p)
    x_arr = np.zeros((len(f_low), 1, d), dtype=f_low.dtype)
    x_arr[:, 0, 1] = 1.0
    y = x_arr
    fixed = []  # whether x^(q^(d/2)) = x, then whether x^(q^d) = x
    for _ in range(2):
        for _ in range(d // 2):
            y = _balance(_vecmat(y, qt), p)
        fixed.append(np.all(y == x_arr, axis=(1, 2)))
    return fixed[1] & ~fixed[0]


def _matrix_path(q, d):
    """Whether rows of degree d over F_q take the Frobenius-matrix path: d at
    most _MATRIX_MAX_D, q at most _MATRIX_Q_PER_D * d, and every sum exact
    in float32."""
    return d <= _MATRIX_MAX_D and q <= _MATRIX_Q_PER_D * d and _sum_bound(q, d) < _F32_EXACT


def rabin_irreducible_2power(field: FiniteField, coeffs) -> np.ndarray:
    """Row-wise irreducibility for monic polynomials of degree 2^m >= 2.

    coeffs: (rows, d+1) array in the balanced representation produced by
    compose_levels or from_polys.
    """
    arr = np.ascontiguousarray(coeffs, dtype=_dtype(field))
    rows, width = arr.shape
    d = width - 1
    if d < 2 or d & (d - 1):
        raise ValueError("degree must be a power of 2, at least 2")
    p, q = field.p, field.q
    if not np.all(_balance(arr[:, d:], p) == 1):
        raise ValueError("rows must be monic")
    matrix = _matrix_path(q, d)
    step = max(1, _Q_ENTRIES // (d * d)) if matrix else max(64, _CHUNK // d)
    out = np.empty(rows, dtype=bool)
    for s in range(0, rows, step):
        f_low = _balance(arr[s : s + step, :d], p)
        out[s : s + step] = (_rabin_matrix_chunk(f_low, q, p) if matrix
                             else _rabin_power_chunk(f_low, q, p))
    return out


def from_polys(field: FiniteField, polys: Sequence[Poly]) -> np.ndarray:
    """Pack monic Polys of one common degree into a balanced array."""
    if not polys:
        raise ValueError("no polynomials given")
    dtype, degree = _dtype(field), polys[0].degree
    if any(poly.field != field or poly.degree != degree or not poly.is_monic for poly in polys):
        raise ValueError("rows must be monic, same field, same degree")
    return _embed([poly.vals for poly in polys], field.p, dtype)


def to_poly(field: FiniteField, row) -> Poly:
    """One balanced coefficient row back into a Poly."""
    arr = np.ascontiguousarray(row, dtype=_dtype(field))
    coords = np.rint(arr.view(arr.real.dtype)).astype(np.int64)
    # one coordinate an entry over F_p, two (re, im) over F_{p^2}
    return Poly(field, coords.reshape(-1, arr.itemsize // arr.real.itemsize).tolist())
