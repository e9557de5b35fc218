"""Irreducible compositions of monic quadratic polynomials over odd finite fields.

The package decides which degree-2^n polynomials over F_q (q odd) arise as
compositions f_1(f_2(...f_n(x)...)) of monic quadratics from a chosen
alphabet, enumerates and counts them through a small word automaton, and
lifts the same chain criterion to the p-adic integers.
"""

__version__ = "0.1.0"

from ._batch import compose_levels, rabin_irreducible_2power
from .automaton import (
    InterimAutomaton,
    NState,
    PartialDfa,
    accepts,
    automaton_from_json,
    build_interim,
    canonical_form,
    count_accepted,
    export,
    extend_frontier,
    isomorphic,
    lazy_accepts,
    lazy_first_failure,
    merge_dist_reg,
    minimize,
    reverse_subset_prune,
    start_level,
    to_dot,
    to_json,
)
from .errors import (
    BothZero,
    BudgetExceeded,
    ConstantPolynomial,
    DegreeTooSmall,
    EmptyAlphabet,
    EmptyChain,
    EmptyWord,
    FreedomNotCertified,
    IndexOutOfRange,
    InvalidDegree,
    NotDecomposable,
    NotIrreducible,
    NotOddPrime,
    OddDegree,
    UnsupportedFormat,
)
from .finite_field import FieldElement, FiniteField, is_prime
from .irreducibility import (
    IRREDUCIBLE,
    NOT_DECOMPOSABLE,
    REDUCIBLE,
    CanonicalChain,
    ChainReport,
    DecompositionVerdict,
    canonicalize,
    chain_irreducible,
    chain_value,
    decompose_quadratic_outer,
    enumerate_irreducible_degree,
    enumerate_level,
    full_decompose,
    iter_levels,
    letter_chain,
    test_decomposable,
)
from .local_field import (
    DEFAULT_PRECISION,
    PRECONDITION_FAILED,
    LocalVerdict,
    PadicInt,
    PadicQuad,
    disc_composition,
    local_irreducible,
    unit_disc,
)
from .monoid import (
    Alphabet,
    FreedomCertificate,
    MonicQuad,
    a_fibers,
    collision_search,
    compose_chain,
    distinguished_set,
    freedom_certificate,
    pi,
    words_related,
)
from .polynomial import (
    Poly,
    discriminant,
    gcd,
    powmod_frobenius,
    rabin_is_irreducible,
    resultant,
)
