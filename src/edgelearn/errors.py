"""Exception hierarchy shared across the package.

Every error raised by edgelearn derives from :class:`EdgeLearnError` so
callers (and the CLI) can distinguish framework failures from bugs.
"""


class EdgeLearnError(Exception):
    """Base class for all edgelearn errors."""


class SchemaError(EdgeLearnError):
    """Schema definition violates an invariant (duplicate column, bad edges, ...)."""


class DataError(EdgeLearnError):
    """A dataset, sample, or CSV row does not conform to its schema."""


class ConfigError(EdgeLearnError):
    """A config file (job, sim, synthetic spec) is malformed."""


class LearnerError(EdgeLearnError):
    """Invalid estimator spec or bad fit/predict input."""


class SerializationError(EdgeLearnError):
    """A serialized payload is corrupt or structurally invalid."""


class UnknownLearnerError(SerializationError):
    """Payload names a learner kind this build does not know (forward-compat)."""


class StoreError(EdgeLearnError):
    """Knowledge-base store I/O failure."""


class CorruptStoreError(StoreError):
    """Checksum or structure mismatch in the on-disk store; names the file."""


class SchemaMismatchError(EdgeLearnError):
    """An artifact or record belongs to a different schema fingerprint."""


class NothingDeployableError(EdgeLearnError):
    """Snapshot requested but no deployable task model and no fallback exist."""


class PhaseError(EdgeLearnError):
    """A lifelong-job operation was called in an illegal phase."""


class NoModelError(EdgeLearnError):
    """Edge inference found no model for a sample (no match, no similar, no fallback)."""
