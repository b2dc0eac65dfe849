"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values (``fractions.Fraction`` over the rationals,
reduced ints in ``[0, p)`` over GF(p)); a :class:`Field` object bundles the
arithmetic so generic code never touches floating point. Zero scalars are
falsy in both representations, which the sparse containers rely on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterator, List, Sequence, Tuple, Union

Scalar = Union[Fraction, int]

# dense mod-p elimination multiplies two reduced residues inside int64
MAX_PRIME = 2**31


def is_prime(p: int) -> bool:
    """Trial-division primality test, adequate for desk-scale moduli."""
    if p < 2:
        return False
    for d in range(2, isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


def integer_numerators(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Rationals as integer numerators over their least common
    denominator d: returns (numerators, d)."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


class Field:
    """Arithmetic interface shared by the rationals and GF(p)."""

    char: int
    zero: Scalar
    one: Scalar

    def coerce(self, x) -> Scalar:
        raise NotImplementedError

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def elements(self) -> Iterator[Scalar]:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and type(self) is type(other) and self.char == other.char

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.char))


class RationalField(Field):
    """The field of rational numbers; scalars are ``Fraction`` values."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"exact arithmetic only, got {type(x).__name__}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def elements(self):
        raise ValueError("the rationals cannot be enumerated")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField(Field):
    """GF(p) for prime p; scalars are ints reduced to ``[0, p)``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p >= MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds the desk-scale cap {MAX_PRIME}")
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x) -> int:
        # int first: the Fraction test is a slower ABC instance check
        if isinstance(x, int):
            return x % self.char
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.char, x.denominator % self.char)
        raise TypeError(f"exact arithmetic only, got {type(x).__name__}")

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.char)

    def elements(self) -> Iterator[int]:
        return iter(range(self.char))

    def __repr__(self) -> str:
        return f"GF({self.char})"


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    """The prime field with p elements (cached, so instances compare fast)."""
    return PrimeField(p)
