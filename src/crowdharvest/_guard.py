"""The argument range rules, each written once.

Each helper takes the values as keyword arguments, raises
:class:`InvalidParameterError` naming the first one out of range and its
value, and fails NaN. Ranges that none of them fits are checked inline.
"""

import math
import numbers

import numpy as np

from .errors import InvalidParameterError


def _shown(value: object) -> str:
    """The value as Python writes it; a numpy scalar is written as its Python number."""
    return repr(value.item() if isinstance(value, np.generic) else value)


def positive(**values: float) -> None:
    """Each value is finite and above 0."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise InvalidParameterError(f"{name} must be positive and finite, got {_shown(value)}")


def non_negative(**values: float) -> None:
    """Each value is finite and at least 0."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise InvalidParameterError(
                f"{name} must be non-negative and finite, got {_shown(value)}")


def non_negative_elements(**sequences) -> None:
    """Every element of each sequence is finite and at least 0; element i is named name[i]."""
    for name, values in sequences.items():
        for i, value in enumerate(values):
            if not 0 <= value < math.inf:  # the element's name is built only to be reported
                non_negative(**{f"{name}[{i}]": value})


def unit(**values: float) -> None:
    """Each value lies in [0, 1]."""
    for name, value in values.items():
        if not 0 <= value <= 1:
            raise InvalidParameterError(f"{name} must lie in [0, 1], got {_shown(value)}")


def count(*, minimum: int = 1, **values: int) -> None:
    """Each value is an integer (not a bool) of at least ``minimum``."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
            raise InvalidParameterError(
                f"{name} must be an integer >= {minimum}, got {_shown(value)}")
