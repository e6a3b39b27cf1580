"""Exception types shared across the package, and naming, which names a refusal by its input."""

from contextlib import contextmanager


class DataError(ValueError):
    """Malformed input data: bad CSV, inconsistent lengths, invalid config."""


class ModelFileError(DataError):
    """Corrupt, truncated, or incompatible classifier model file."""


class PipelineStageError(DataError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def naming(where):
    """A ValueError the block raises leaves as a DataError, and a DataError as
    its own class, with the message f"{where}: {exc}"; anything else, such
    as an OSError for a missing file, passes through."""
    try:
        yield
    except ValueError as exc:
        cls = type(exc) if isinstance(exc, DataError) else DataError
        raise cls(f"{where}: {exc}") from None
