"""Exception types shared across the package.

Each error's category is its base class, and ``rrr`` exits by category:
an ``InputError`` (a data, k-set or members file it cannot use) exits 2,
a ``ConfigError`` (a value or input shape the run cannot use) exits 3,
and every other ``RankRegretError`` exits 4.  No class is both.
"""


class RankRegretError(Exception):
    """Base class for all package errors."""


class InputError(RankRegretError):
    """An input file's content the run cannot use."""


class ConfigError(RankRegretError, ValueError):
    """Invalid run configuration: a value or input shape the run cannot use."""


class DimensionMismatch(ConfigError):
    """Weight vector or tuple length does not match the dataset dimensionality."""


class DimensionNot2D(ConfigError):
    """Operation is only defined for two-attribute datasets."""


class KOutOfRange(ConfigError):
    """Requested k is not within [1, n]."""


class AngleOutOfRange(RankRegretError):
    """An angle lies outside [0, pi/2]."""


class ConstantAttribute(InputError):
    """A selected attribute has max == min and carries no ranking information."""


class NonFiniteValue(InputError):
    """Input data contains NaN or infinity."""


class EmptySubset(ConfigError):
    """A non-empty subset of tuple ids is required."""


class UncoverableSpace(RankRegretError):
    """The supplied ranges cannot cover the angular span (corrupted input)."""


class LPNumericalFailure(RankRegretError):
    """The k-set graph found no seed: none of its 17 seed functions has a
    strictly separable top-k (say k = 1 with the best row duplicated)."""


class EmptyCollection(RankRegretError):
    """A non-empty k-set collection is required."""


class NoUsableRows(InputError):
    """Ingestion dropped every row of the input file."""


class MalformedDataFile(InputError, ValueError):
    """A data file's body does not parse as delimited text."""


class MalformedKSetFile(InputError, ValueError):
    """A k-set file does not parse, or names a tuple the dataset lacks."""


class MalformedMembersFile(InputError, ValueError):
    """A members file is not solve's JSON with a list of integer member_ids."""
