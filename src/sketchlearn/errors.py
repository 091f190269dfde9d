"""Exception types raised across the package, and its one type rule for counts."""

from numbers import Integral


def is_number(value, kind=Integral) -> bool:
    """A ``kind`` (integer by default), not a bool: JSON true is no count or rate."""
    return isinstance(value, kind) and not isinstance(value, bool)


class SketchLearnError(Exception):
    """Base class for every library-specific error."""


class EmptyMatrix(SketchLearnError, ValueError):
    """Operation received a matrix with no entries."""


class NonFinite(SketchLearnError, ValueError):
    """Input contains NaN or infinite values."""


class DimensionMismatch(SketchLearnError, ValueError):
    """Operand shapes are incompatible."""


class IndexOutOfRange(SketchLearnError, IndexError):
    """Row or column index outside the stored matrix."""


class ZeroMatrix(SketchLearnError, ValueError):
    """Weighted sampling requested from an all-zero matrix."""


class ZeroRow(SketchLearnError, ValueError):
    """In-row sampling requested from a row with zero norm."""


class ZeroProbability(SketchLearnError, ValueError):
    """A sampled index carries zero probability; rescaling is undefined."""


class RankDeficientSketch(SketchLearnError, ValueError):
    """The sketch produced no usable singular values."""


class AllSingularValuesFiltered(SketchLearnError, ValueError):
    """Every singular value fell below the rcond floor."""


class LabelOutOfRange(SketchLearnError, ValueError):
    """A class label lies outside [0, n_classes)."""


class BadMagic(SketchLearnError, ValueError):
    """A data file does not start with the expected magic number."""


class CountMismatch(SketchLearnError, ValueError):
    """Image and label files disagree on the record count."""


class TruncatedFile(SketchLearnError, ValueError):
    """A data file is shorter than its header or record size implies."""


class RankTooLarge(SketchLearnError, ValueError):
    """Requested rank exceeds the matrix dimensions."""


class Diverged(SketchLearnError, RuntimeError):
    """Gradient descent left the stable regime (loss grew past 10x initial)."""


class DatasetMissing(SketchLearnError, FileNotFoundError):
    """Expected dataset files were not found."""
