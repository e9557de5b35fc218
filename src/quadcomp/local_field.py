"""Monic quadratics over the p-adic integers at fixed precision.

A chain of unit-discriminant letters is irreducible over the p-adic
field iff its coefficient-wise reduction mod p is irreducible over F_p;
the reduction is tested with the chain criterion.  When the leading
letter's discriminant is not a unit the question is refused rather than
guessed (x^2 - p is irreducible while its reduction x^2 is not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DegreeTooSmall, EmptyChain, NotOddPrime
from .finite_field import FieldElement, FiniteField, is_prime
from .irreducibility import IRREDUCIBLE, ChainReport, letter_chain
from .monoid import MonicQuad
from .polynomial import Poly, discriminant

DEFAULT_PRECISION = 8

PRECONDITION_FAILED = "precondition-failed"


class PadicInt:
    """An integer known modulo p^prec."""

    __slots__ = ("p", "prec", "val")

    def __init__(self, p: int, value: int, prec: int = DEFAULT_PRECISION):
        if p == 2 or not is_prime(p):
            raise NotOddPrime("%r is not an odd prime" % (p,))
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.prec = prec
        self.val = value % p**prec

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.p != self.p or other.prec != self.prec:
                raise ValueError("mixed p-adic contexts")
            return other
        if isinstance(other, int):
            return PadicInt(self.p, other, self.prec)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.val + other.val, self.prec)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.val - other.val, self.prec)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.val * other.val, self.prec)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.p, -self.val, self.prec)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        return PadicInt(self.p, pow(self.val, e, self.p**self.prec), self.prec)

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicInt(self.p, other, self.prec)
        if not isinstance(other, PadicInt):
            return NotImplemented
        return (self.p, self.prec, self.val) == (other.p, other.prec, other.val)

    def __hash__(self):
        return hash((self.p, self.prec, self.val))

    def valuation(self) -> int:
        """Largest e <= prec with p^e dividing the value."""
        if self.val == 0:
            return self.prec
        e = 0
        v = self.val
        while v % self.p == 0:
            v //= self.p
            e += 1
        return e

    def is_unit(self) -> bool:
        return self.val % self.p != 0

    def residue(self) -> int:
        return self.val % self.p

    def __str__(self):
        return str(self.val)

    def __repr__(self):
        return "PadicInt(%d, %d, prec=%d)" % (self.p, self.val, self.prec)


@dataclass(frozen=True)
class PadicQuad:
    """A letter (x-a)^2 - b with p-adic coefficients."""

    a: PadicInt
    b: PadicInt

    def __post_init__(self):
        if self.a.p != self.b.p or self.a.prec != self.b.prec:
            raise ValueError("mixed p-adic contexts")

    @property
    def p(self) -> int:
        return self.a.p

    def reduce(self, field: Optional[FiniteField] = None) -> MonicQuad:
        """Coefficient-wise reduction mod p into a letter over F_p."""
        if field is None:
            field = FiniteField(self.p)
        elif field.p != self.p or field.k != 1:
            raise ValueError("field does not match the residue field F_%d" % self.p)
        return MonicQuad(field.elem(self.a.residue()), field.elem(self.b.residue()))

    def __str__(self):
        return "a=%s b=%s" % (self.a, self.b)


def unit_disc(f: PadicQuad) -> bool:
    """True iff disc(f) = 4b is a p-adic unit (p odd, so iff b is)."""
    return f.b.valuation() == 0


@dataclass(frozen=True)
class LocalVerdict:
    """Outcome of the local irreducibility test."""

    status: str
    witness: Optional[int] = None
    report: Optional[ChainReport] = None

    @property
    def irreducible(self) -> bool:
        return self.status == IRREDUCIBLE


def local_irreducible(chain: Sequence[PadicQuad]) -> LocalVerdict:
    """Decide irreducibility of a p-adic quadratic chain via its reduction.

    Requires the outermost letter to have unit discriminant; otherwise the
    lifting theorem does not apply and the verdict is precondition-failed.
    """
    if not chain:
        raise EmptyChain("the chain must contain at least one letter")
    p = chain[0].p
    for quad in chain[1:]:
        if quad.p != p:
            raise ValueError("mixed primes in the chain")
    if not unit_disc(chain[0]):
        return LocalVerdict(PRECONDITION_FAILED)
    field = FiniteField(p)
    report = letter_chain([quad.reduce(field) for quad in chain])
    return LocalVerdict(report.status, report.witness, report)


def disc_composition(g: Poly, f: MonicQuad) -> FieldElement:
    """The composition side of the discriminant identity.

    Returns disc(g)^2 * 4^(deg g) * g(-b_f), which equals disc(g o f) up
    to sign; deg g = 1 uses disc(g) = 1.
    """
    if g.degree < 1:
        raise DegreeTooSmall("deg g must be >= 1")
    if not g.is_monic:
        raise ValueError("g must be monic")
    field = g.field
    if f.field != field:
        raise ValueError("mixed fields")
    dg = discriminant(g) if g.degree >= 2 else field.one
    four = field.elem(4 % field.p)
    return dg * dg * four ** g.degree * g(-f.b)
