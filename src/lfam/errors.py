"""Exception types shared across the library.

Everything derives from LfamError so callers can catch broadly; the CLI
maps subclasses to distinct exit codes.
"""


class LfamError(Exception):
    """Base class for all library errors."""


class ShapeError(LfamError, ValueError):
    """Tensor or map dimensions violate an operation's contract."""


class ContractError(LfamError, ValueError):
    """An operation precondition other than shape was violated."""


class ConfigError(LfamError, ValueError):
    """Invalid or inconsistent configuration value."""


class DegenerateWindowError(LfamError, ValueError):
    """A softmax row had every position masked out."""


class LabelError(LfamError, ValueError):
    """A target map contains class indices outside [0, num_classes)."""


class NumericalError(LfamError, RuntimeError):
    """Non-finite values where finite ones are required (NaN loss, unstable check)."""


class GenerationError(LfamError, RuntimeError):
    """Synthetic data generation could not place a shape within bounded retries."""


class ScaleGuardError(LfamError, ValueError):
    """A brute-force oracle was invoked above its intended desk scale."""


class PgmError(ContractError, OSError):
    """A PGM file is malformed: bad magic, header field, maxval, size or payload length.

    It is an OSError, so the CLI reports it as a file error (exit 4).
    """


class DatasetError(ContractError, OSError):
    """A dataset directory is unusable: an image without its mask or the reverse,
    or a mask holding a label outside [0, num_classes).

    It is an OSError, so the CLI reports it as a file error (exit 4).
    """


class CheckpointError(LfamError, IOError):
    """Checkpoint file is missing, malformed, or built for another architecture."""
