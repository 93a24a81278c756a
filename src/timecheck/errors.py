"""Exception types shared across the toolkit.

Every error raised by timecheck derives from TimecheckError so the CLI can
map any operational failure to a single exit code.
"""


class TimecheckError(Exception):
    """Base class for all timecheck errors."""


# field / coefficients

class IndexOutOfField(TimecheckError):
    """Coefficient index+1 reached the modulus: region too large for the prime."""


# permutation

class DomainEmpty(TimecheckError):
    """Permutation over an empty domain was requested."""


class RankOutOfRange(TimecheckError):
    """Rank or index outside [0, n)."""


class CycleWalkExceeded(TimecheckError):
    """Cycle walking did not land in-domain within the iteration cap (internal defect)."""


# checkpoint

class NotQuiesced(TimecheckError):
    """Device reported active interference sources during checkpoint_record."""


class VersionMismatch(TimecheckError):
    """Checkpoint format_version not supported."""


class SizeMismatch(TimecheckError):
    """Live region and checkpoint disagree on word count."""


# challenge engine

class SpecOutOfField(TimecheckError):
    """passes * word_count exceeds p - 1: coefficient indices would leave the field."""


class PermutationDomainMismatch(TimecheckError):
    """Injected permutation does not cover [0, word_count)."""


# device simulator

class UnknownTier(TimecheckError):
    """Adversary targets a tier missing from the tier table."""


# verifier statistics

class InsufficientSamples(TimecheckError):
    """Too few samples for the requested statistic."""


class DegenerateSeries(TimecheckError):
    """Statistic undefined: zero variance / zero MAD series."""


# protocol

class ChannelTimeout(TimecheckError):
    """No response within the channel deadline."""


class SessionMismatch(TimecheckError):
    """Response session id does not match the outstanding challenge."""


class MalformedFrame(TimecheckError):
    """Frame failed magic, length, or CRC validation."""
