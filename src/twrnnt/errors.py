"""Exception hierarchy shared across the package, and the checkers that
hold every config field and JSON record field to its rule.

The CLI maps the exceptions onto exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.  A checker takes a value and the name
to report it by, and raises a DataError with that name.  A config
dataclass states each field's rule once, with ``checked``; ``rule_of``
hands it to the config keys and engine arguments that feed the field.
"""

import math
from dataclasses import MISSING, field
from functools import partial

import numpy as np


class TwrnntError(Exception):
    """Base class for all package errors."""


class ConfigError(TwrnntError):
    """Invalid configuration: unknown keys, bad values, missing paths."""


class DataError(TwrnntError):
    """Invalid input data: malformed files, dimension mismatches, bad labels."""


class NumericalError(TwrnntError):
    """Numerical failure: zero-probability prefixes, NaN losses, divergence."""


def check_count(value, name, low=0):
    """``value`` if it is a Python or NumPy integer >= ``low``, not a bool.
    The common case costs one type comparison and one comparison."""
    if (type(value) is not int and not isinstance(value, np.integer)) or value < low:
        raise DataError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_real(value, name, low=-math.inf, high=math.inf, open_low=False):
    """``value`` if it is a finite real in [low, high], or (low, high] with
    ``open_low``: an int passes, a bool does not.  The comparisons are
    negated, so that NaN fails them."""
    if (
        type(value) is bool
        or not isinstance(value, (int, float, np.integer, np.floating))
        or not (low < value if open_low else low <= value)
        or not value <= high
        or not -math.inf < value < math.inf
    ):
        ops = ((">" if open_low else ">=", low), ("<=", high))
        bounds = "".join(f" and {op} {b:g}" for op, b in ops if -math.inf < b < math.inf)
        raise DataError(f"{name} must be finite{bounds}, got {value!r}")
    return value


def check_choice(value, name, choices):
    """``value`` if it is one of ``choices``, and of its type: 1 is not True."""
    if not any(type(value) is type(c) and value == c for c in choices):
        raise DataError(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_string(value, name):
    """``value`` if it is a string; any other JSON value is refused, not cast."""
    if type(value) is not str:
        raise DataError(f"{name} must be a string, got {value!r}")
    return value


def check_each(values, name, check, **bounds):
    """``values`` if it is a nonempty list or tuple whose every entry passes
    ``check(entry, name, **bounds)``."""
    if type(values) not in (list, tuple) or not values:
        raise DataError(f"{name} must be a nonempty list, got {values!r}")
    for value in values:
        check(value, name, **bounds)
    return values


_LIST, _NUMBER, _INTEGER = {list}, {int, float}, {int}


def check_list(value, name, nested=False, integer=False):
    """A JSON list of numbers (``nested``: of lists of numbers) as a float64
    array; or with ``integer``, a flat list of integers >= 0 as an int64
    array.

    ``np.asarray`` reads "0.5" as 0.5 and true as 1.0, so one pass over the
    entries' types comes first.  NaN and +-inf are JSON numbers here: a -inf
    log-probability is a hard zero, and each record's consumer checks
    finiteness where it matters."""
    what = f"{name} must be a {'list of lists' if nested else 'flat list'} of "
    what += "integers >= 0" if integer else "numbers"
    rows = value if nested and type(value) is list else [value]
    if not set(map(type, rows)) <= _LIST:
        bad = value if rows is not value else next(row for row in rows if type(row) is not list)
        raise DataError(f"{what}, got {bad!r}")
    types = {type(x) for row in rows for x in row}
    kinds = _INTEGER if integer else _NUMBER
    if not types <= kinds:
        raise DataError(f"{what}, got {', '.join(sorted(t.__name__ for t in types - kinds))} entries")
    if integer and value and min(value) < 0:
        raise DataError(f"{what}, got {min(value)}")
    try:
        return np.asarray(value, dtype=np.int64 if integer else np.float64)
    except (ValueError, OverflowError) as exc:  # ragged rows, or beyond int64
        raise DataError(f"{what}: {exc}") from None


def checked(check, default=MISSING, /, **bounds):
    """A dataclass field whose rule is ``check(value, name, **bounds)``."""
    return field(default=default, metadata={"rule": partial(check, **bounds)})


def rule_of(cls, name):
    """The rule of dataclass ``cls``'s field ``name``: a callable of (value, name)."""
    return cls.__dataclass_fields__[name].metadata["rule"]


def check_fields(obj) -> None:
    """Apply each field's rule to its value: a dataclass's ``__post_init__``."""
    for f in obj.__dataclass_fields__.values():
        if "rule" in f.metadata:
            f.metadata["rule"](getattr(obj, f.name), f.name)
