"""One check for every record field that declares its range in
``field(metadata=_range(...))`` or its choices in ``field(metadata=_choices(...))``."""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import fields


def _range(lo: float = -math.inf, hi: float = math.inf, *, lo_open=False, inf_ok=False) -> dict:
    """Field metadata admitting the numbers from ``lo`` to ``hi``, stored as floats.

    ``lo`` itself is admitted unless ``lo_open``, an infinite bound only
    with ``inf_ok``, and NaN or a non-number (a string, None, a complex) never.
    """

    def admit(value):
        if type(value) is not float:  # an int, Decimal, Fraction, numpy scalar or no number
            try:  # a non-number reads as NaN; an OverflowError (10**400) goes to _Checked
                value = float(value) if isinstance(value, numbers.Number) else math.nan
            except (TypeError, ValueError):  # a complex, a signaling NaN
                value = math.nan
        above = lo < value if lo_open else lo <= value
        return value if above and value <= hi and (inf_ok or math.isfinite(value)) else None

    words = [] if inf_ok else ["finite"]
    if hi < math.inf:
        words.append(f"in {'(' if lo_open else '['}{lo:g}, {hi:g}]")
    elif lo > -math.inf:
        words.append(f"{'>' if lo_open else '>='} {lo:g}")
    return {"admits": (admit, " and ".join(words))}


def _choices(options: tuple) -> dict:
    """Field metadata admitting only the members of ``options``."""
    return {"admits": (lambda value: value if value in options else None, f"one of {options}")}


def _stored(value, rule: dict) -> tuple:
    """(what a field of metadata ``rule`` stores of ``value`` or None, the rule's description)."""
    admit, description = rule["admits"]
    try:
        return admit(value), description
    except OverflowError:
        return None, "a number a float can hold"


def _admit(label: str, name: str, value, rule: dict, error: type):
    """What field ``name`` of metadata ``rule`` stores of ``value``, else ``error``."""
    stored, description = _stored(value, rule)
    if stored is None:
        try:
            shown = repr(value)
        except ValueError:  # an int or Fraction of more digits than str() may write
            shown = f"<{type(value).__name__} too long to print>"
        raise error(f"{label}: {name} = {shown} must be {description}")
    return stored


@functools.cache
def _rules(cls) -> tuple:
    """``(name, admit, metadata)`` of each field that declares what it admits."""
    return tuple(
        (f.name, f.metadata["admits"][0], f.metadata) for f in fields(cls) if "admits" in f.metadata
    )


class _Checked:
    """Base of the checked records; each names the exception it raises in ``_error``."""

    def _label(self) -> str:
        return type(self).__name__

    def __post_init__(self):
        for name, admit, rule in _rules(type(self)):
            value = getattr(self, name)
            try:
                stored = admit(value)
            except OverflowError:
                stored = None
            if stored is None:  # raises, naming the field
                _admit(self._label(), name, value, rule, self._error)
            if stored is not value:
                object.__setattr__(self, name, stored)
