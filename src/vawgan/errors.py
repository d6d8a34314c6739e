"""Exception hierarchy shared across the package.

Three families matter to callers: shape/graph misuse (ShapeError),
bad data or files (DataError and subclasses), and numerical blow-ups
(NumericError). Exit codes 1/2/3 are reserved for them, in that order,
for the planned command-line interface; the package has none yet.
``as_integer`` and ``as_real`` are the one integer and the one float
check: each turns a bool or a value of the wrong kind into an error
naming the setting, a DataError unless another type is asked for;
``as_speaker`` is the one speaker-id lookup.
"""

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


def _index(value):
    """``operator.index(value)``, or None for a non-integer; a bool is a flag, not 0 or 1."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def as_integer(name: str, value, error: type[Exception] = DataError) -> int:
    """``value`` as a Python int, or ``error`` naming ``name``; NumPy integers pass,
    1.5 and True do not."""
    result = _index(value)
    if result is None:
        raise error(f"{name} must be an integer, got {value!r}")
    return result


def as_real(name: str, value, error: type[Exception] = DataError) -> float:
    """``value`` as a Python float, or ``error`` naming ``name``; NumPy floats and
    integers pass, True and "0.5" do not. The caller checks the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_speaker(value, count: int) -> int:
    """``value`` as a Python int in [0, count), or UnknownSpeakerError; NumPy integers pass,
    1.5 and True do not."""
    speaker = _index(value)
    if speaker is None:
        raise UnknownSpeakerError(f"speaker id must be an integer, got {value!r}")
    if not 0 <= speaker < count:
        raise UnknownSpeakerError(f"speaker id {speaker} outside the {count} known speakers")
    return speaker
