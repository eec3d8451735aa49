"""Exception types shared across the package.

Every error carries enough context in its message to act on (which cap was
exceeded, which index was out of range) so CLI users never need a traceback.
Every capped or range-checked argument, in the library as on the command
line, goes through ``cyclotomic.check_level``, ``check_subset`` or
``check_generator``, the only places that raise ``LevelTooLarge`` and
``SubsetOutOfRange``.
"""


class Char2CatError(Exception):
    """Base class for all package-specific errors."""


class LevelTooLarge(Char2CatError):
    """A level, index, order or label is negative or exceeds its cap."""


class LevelMismatch(Char2CatError):
    """Two ring or fusion elements from different levels were combined."""


class SubsetOutOfRange(Char2CatError):
    """A subset bitmask or a generator index lies outside 1..n at level n."""


class NotIntegral(Char2CatError):
    """An exact linear solve produced a non-integer entry.

    This signals an internal inconsistency and is surfaced rather than
    silently rounded.
    """


class DimensionMismatch(Char2CatError):
    """Matrix or vector shapes are incompatible with the requested level."""


class NotTiltingCharacter(Char2CatError):
    """A symmetric character is not a nonnegative combination of tilting
    characters."""

