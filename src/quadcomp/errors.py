"""Exception types shared across the package."""


class NotOddPrime(ValueError):
    """The characteristic must be an odd prime."""


class InvalidDegree(ValueError):
    """A degree parameter is out of range for the operation."""


class ConstantPolynomial(ValueError):
    """The operation needs a polynomial of positive degree."""


class DegreeTooSmall(ValueError):
    """The polynomial degree is below the operation's minimum."""


class BothZero(ValueError):
    """gcd(0, 0) is undefined."""


class IndexOutOfRange(ValueError):
    """A letter or state index is outside its range (a word's letter, or an
    automaton's state, letter or transition target)."""


class EmptyAlphabet(ValueError):
    """The operation needs at least one letter."""


class EmptyWord(ValueError):
    """The operation needs a nonempty word."""


class EmptyChain(ValueError):
    """The operation needs at least one quadratic in the chain."""


class OddDegree(ValueError):
    """A quadratic cannot divide off an odd-degree polynomial."""


class NotDecomposable(ValueError):
    """No monic quadratic splits off the given polynomial."""


class NotIrreducible(ValueError):
    """The polynomial is reducible, so no canonical form exists."""


class BudgetExceeded(RuntimeError):
    """A bounded search ran past its configured budget."""


class UnsupportedFormat(ValueError):
    """Unknown export format name."""


class FreedomNotCertified(UserWarning):
    """Word counts may overcount polynomials: the alphabet's freedom
    criterion did not apply.  Enumeration of words is still valid."""
