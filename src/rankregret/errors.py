"""Exception types shared across the package."""


class RankRegretError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(RankRegretError):
    """Weight vector or tuple length does not match the dataset dimensionality."""


class DimensionNot2D(RankRegretError):
    """Operation is only defined for two-attribute datasets."""


class KOutOfRange(RankRegretError):
    """Requested k is not within [1, n]."""


class AngleOutOfRange(RankRegretError):
    """An angle lies outside [0, pi/2]."""


class ConstantAttribute(RankRegretError):
    """A selected attribute has max == min and carries no ranking information."""


class NonFiniteValue(RankRegretError):
    """Input data contains NaN or infinity."""


class EmptySubset(RankRegretError):
    """A non-empty subset of tuple ids is required."""


class UncoverableSpace(RankRegretError):
    """The supplied ranges cannot cover the angular span (corrupted input)."""


class LPNumericalFailure(RankRegretError):
    """The k-set graph found no seed: none of its 17 seed functions has a
    strictly separable top-k (say k = 1 with the best row duplicated)."""


class EmptyCollection(RankRegretError):
    """A non-empty k-set collection is required."""


class NoUsableRows(RankRegretError):
    """Ingestion dropped every row of the input file."""


class MalformedDataFile(RankRegretError, ValueError):
    """A data file's body does not parse as delimited text."""


class MalformedKSetFile(RankRegretError, ValueError):
    """A k-set file does not parse, or names a tuple the dataset lacks."""


class MalformedMembersFile(RankRegretError, ValueError):
    """A members file is not solve's JSON with a list of integer member_ids."""


class ConfigError(RankRegretError, ValueError):
    """Invalid run configuration: a value or input shape the run cannot use."""
