"""Exact exponent arithmetic for the summability-order relations.

Everything here is integer-rational: :class:`Exponent` (``p`` in
``[1, inf]``) and :class:`OrderExponent` (``s`` in ``(0, 1]``) share one
core that stores a :class:`fractions.Fraction` with its exact reciprocal,
so ``p = inf`` is the reciprocal ``0`` and no floating point ever enters

    1/s = 1 + |1/2 - 1/p|,    1/r = 1/s - 1,    (1 - s) * r = s,

or the three-exponent chain ``1/r + 1/2 + 1/p = 1``.  Both take an ``int``,
a ``Fraction`` or a string in the command line's grammar ``"7/3"``, ``"2"``,
``"inf"`` (``p`` only, case-insensitive); booleans and floats are rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering

__all__ = [
    "Exponent",
    "OrderExponent",
    "ParameterTriple",
    "INF",
    "s_from_p",
    "r_from_s",
    "conjugate",
    "reduce_to_p_ge_2",
    "check_holder_chain",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
_ONE = Fraction(1)


# Fraction expands a decimal exponent to an exact integer before any range
# check could run ("1e9999999" takes most of a minute), so bound it first.
_DECIMAL_EXP = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    exp = _DECIMAL_EXP.search(text)
    if len(text) > 64 or (exp and abs(int(exp.group(1))) > 1000):
        raise ValueError(
            "exponent literal over 64 characters or with a decimal exponent "
            f"beyond +-1000: {text[:64]!r}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational exponent literal: {text!r}") from exc


class _Rational:
    """Shared core: an exact rational ``value`` stored with its ``reciprocal``.

    One input rule: an ``int``, a ``Fraction``, a numeric string or an
    instance of the same class; ``bool``, ``float`` (inexact) and anything
    else raise ``TypeError``.  Each subclass checks its range in ``_check``;
    instances of different subclasses are never equal.
    """

    __slots__ = ("_value", "_recip")

    def __init__(self, value):
        if isinstance(value, type(self)):
            self._value, self._recip = value._value, value._recip
            return
        if isinstance(value, str):
            value = _parse_rational(value)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(
                f"{type(self).__name__} takes an int, Fraction or numeric string, "
                f"not {type(value).__name__}"
            )
        value = Fraction(value)
        self._check(value)
        self._value, self._recip = value, 1 / value

    @classmethod
    def _exact(cls, value: Fraction | None, recip: Fraction):
        """An instance from a value and reciprocal already known to be valid."""
        obj = object.__new__(cls)
        obj._value, obj._recip = value, recip
        return obj

    @property
    def value(self) -> Fraction | None:
        """The exact rational, or ``None`` for ``inf``."""
        return self._value

    @property
    def reciprocal(self) -> Fraction:
        """The exact reciprocal; ``0`` for ``inf``."""
        return self._recip

    def __float__(self) -> float:
        return math.inf if self._value is None else float(self._value)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Rational):
            return type(other) is type(self) and self._recip == other._recip
        if isinstance(other, (int, Fraction)):
            return self._value == other
        return NotImplemented

    def __hash__(self):
        # equal to hash(int/Fraction) where __eq__ says equal
        return hash(self._value)

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


@total_ordering
class Exponent(_Rational):
    """An exponent ``p`` in ``[1, inf]``; it also takes ``"inf"``
    (case-insensitive) and the float ``inf``, stored as the reciprocal ``0``."""

    __slots__ = ()

    def __init__(self, value):
        if (isinstance(value, str) and value.strip().lower() == "inf"
                or isinstance(value, float) and value == math.inf):
            self._value, self._recip = None, _ZERO
        else:
            super().__init__(value)

    @staticmethod
    def _check(value: Fraction) -> None:
        if value < 1:
            raise ValueError(f"exponent must satisfy p >= 1, got {value}")

    @classmethod
    def from_reciprocal(cls, recip: Fraction) -> "Exponent":
        """Build from an exact reciprocal in ``[0, 1]`` (``0`` means ``inf``)."""
        recip = Fraction(recip)
        if not 0 <= recip <= 1:
            raise ValueError(f"reciprocal must lie in [0, 1], got {recip}")
        return cls._exact(1 / recip if recip else None, recip)

    @property
    def is_inf(self) -> bool:
        return self._value is None

    # Larger exponent <=> smaller reciprocal; inf is the maximum.
    def __lt__(self, other) -> bool:
        if isinstance(other, Exponent):
            return self._recip > other._recip
        if isinstance(other, (int, Fraction)):
            return self._value is not None and self._value < other
        return NotImplemented


def _coerce(value) -> Exponent:
    return value if isinstance(value, Exponent) else Exponent(value)


INF = Exponent("inf")


class OrderExponent(_Rational):
    """A summability order ``s`` in ``(0, 1]``, stored as an exact rational."""

    __slots__ = ()

    @staticmethod
    def _check(value: Fraction) -> None:
        if not 0 < value <= 1:
            raise ValueError(f"order must lie in (0, 1], got {value}")


def s_from_p(p) -> OrderExponent:
    """Order exponent on the curve ``1/s = 1 + |1/2 - 1/p|``.

    Invariant under conjugation: ``s_from_p(p) == s_from_p(conjugate(p))``.
    """
    p = _coerce(p)
    recip_s = _ONE + abs(_HALF - p.reciprocal)  # in [1, 3/2]: s is in range
    return OrderExponent._exact(1 / recip_s, recip_s)


def r_from_s(s) -> Exponent:
    """Residual exponent with ``1/r = 1/s - 1``; ``s = 1`` maps to ``inf``."""
    s = OrderExponent(s)
    return Exponent.from_reciprocal(s.reciprocal - _ONE)


def conjugate(p) -> Exponent:
    """Dual exponent: ``1/p + 1/conjugate(p) = 1`` exactly."""
    p = _coerce(p)
    return Exponent.from_reciprocal(_ONE - p.reciprocal)


def reduce_to_p_ge_2(p) -> Exponent:
    """The larger of ``p`` and its conjugate; always ``>= 2`` and idempotent."""
    p = _coerce(p)
    return Exponent.from_reciprocal(min(p.reciprocal, _ONE - p.reciprocal))


def check_holder_chain(exps) -> bool:
    """True iff the reciprocals of the given exponents sum exactly to 1."""
    total = sum((_coerce(e).reciprocal for e in exps), _ZERO)
    return total == _ONE


@dataclass(frozen=True)
class ParameterTriple:
    """The exact reduced triple of ``p``, the one way to derive ``(p, s, r)``.

    ``ParameterTriple(p)`` stores ``p = reduce_to_p_ge_2(p)``,
    ``s = s_from_p(p)`` and ``r = r_from_s(s)``, so the curve identities hold
    by construction.  In exact arithmetic ``1/r = 1/s - 1`` gives
    ``(1 - s) r = s`` for finite ``r``, and ``s = 1`` exactly when
    ``r = inf``: this is what makes the ``mu^(1-s)`` diagonal r-summable
    whenever ``mu^s`` is summable.
    """

    p: Exponent
    s: OrderExponent = field(init=False)
    r: Exponent = field(init=False)

    def __post_init__(self):
        p = reduce_to_p_ge_2(self.p)
        s = s_from_p(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r_from_s(s))

    def as_dict(self) -> dict:
        return {"p": str(self.p), "s": str(self.s), "r": str(self.r)}
