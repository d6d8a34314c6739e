"""Exception hierarchy shared across the package.

Three families matter to callers: shape/graph misuse (ShapeError),
bad data or files (DataError and subclasses), and numerical blow-ups
(NumericError). Exit codes 1/2/3 are reserved for them, in that order,
for the planned command-line interface; the package has none yet.
``as_integer`` is the shared check that turns a non-integer setting
into a DataError naming it.
"""

import operator


class ShapeError(ValueError):
    """Inconsistent tensor shapes or a non-scalar differentiation target."""


class DataError(Exception):
    """Invalid input data: dimensions, speakers, files, corpora."""


class DimMismatchError(DataError):
    """Feature dimensionality of two objects disagrees."""


class UnknownSpeakerError(DataError):
    """Speaker id outside the embedding table."""


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


def as_integer(name: str, value) -> int:
    """``value`` as a Python int, or DataError naming ``name``; NumPy integers pass, 1.5 does not."""
    try:
        return operator.index(value)
    except TypeError:
        raise DataError(f"{name} must be an integer, got {value!r}") from None
