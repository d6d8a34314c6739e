"""Exception hierarchy shared across the package.

Three families matter to callers: shape/graph misuse (ShapeError),
bad data or files (DataError and subclasses), and numerical blow-ups
(NumericError). Exit codes 1/2/3 are reserved for them, in that order,
for the planned command-line interface; the package has none yet.
``as_integer`` and ``as_real`` are the one integer and the one float
reader: each returns a Python number in [low, high), finite for
``as_real``, or raises one error naming the setting, a DataError unless
another type is asked for. ``as_speaker`` is ``as_integer`` over the speakers.
"""

import math
import numbers
import operator


class ShapeError(ValueError):
    """Inconsistent tensor shapes or dtypes, or a non-scalar differentiation target."""


class DataError(Exception):
    """Invalid input data: dimensions, speakers, files, corpora."""


class DimMismatchError(DataError):
    """Feature dimensionality of two objects disagrees."""


class UnknownSpeakerError(DataError):
    """Speaker id that is not an integer or lies outside the known speakers."""


class FormatError(DataError):
    """A binary or text artifact does not follow its file format."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class BadVersionError(FormatError):
    """File carries an unsupported format version."""


class TruncatedFileError(FormatError):
    """File ended before the declared payload was read."""


class NumericError(Exception):
    """Non-finite values encountered where finite ones are required."""


def as_integer(name: str, value, error: type[Exception] = DataError,
               low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as a Python int in [low, high), or ``error`` naming ``name``; NumPy integers
    pass, 1.5 and True do not: a bool is a flag, not 0 or 1."""
    try:
        result = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        result = None
    if result is None or not low <= result < high:
        raise error(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return result


def as_real(name: str, value, error: type[Exception] = DataError,
            low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a finite Python float in [low, high), or ``error`` naming ``name``; NumPy
    floats and integers pass, True, "0.5", NaN and infinity do not."""
    result = None if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
    if result is None or not (math.isfinite(result) and low <= result < high):
        raise error(f"{name} must be a finite real number in [{low}, {high}), got {value!r}")
    return result


def as_speaker(value, count: int) -> int:
    """``value`` as a Python int in [0, count), or UnknownSpeakerError."""
    return as_integer("speaker id", value, UnknownSpeakerError, 0, count)
