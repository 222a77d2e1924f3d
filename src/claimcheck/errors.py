"""Exception hierarchy shared by all pipeline layers."""

from __future__ import annotations


class ClaimcheckError(Exception):
    """Base class for all pipeline errors."""

    exit_code = 2


# --- corpus layer -----------------------------------------------------------

class EmptyInput(ClaimcheckError):
    """Raw document contained no usable text."""


class UnsupportedFormat(ClaimcheckError):
    """Document format is not one of the declared input formats."""


class EmptyStore(ClaimcheckError):
    """Semantic search was asked to run over an empty embedding store."""


class DimensionMismatch(ClaimcheckError):
    """Embedding record does not match the store's vector dimension."""


class ModelTagMismatch(ClaimcheckError):
    """Embedding record was produced by a different model than the store."""


# --- provider ---------------------------------------------------------------

class ProviderFailure(ClaimcheckError):
    """Inference provider failed after bounded retries."""

    exit_code = 3

    def __init__(self, message: str, *, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


class SchemaViolation(ClaimcheckError):
    """Provider payload or response failed its per-kind schema."""

    exit_code = 3


class AllSlotsFailed(ProviderFailure):
    """Every (provider tag, sample) slot of a hypothesis request failed."""


# --- knowledge layer --------------------------------------------------------

class UnresolvedSubject(ClaimcheckError):
    """Claim subject does not resolve to a registry entity."""


class AlreadyClassified(ClaimcheckError):
    """Provenance was already set on this claim; it is set exactly once."""


class UnparseableMetric(ClaimcheckError):
    """Raw metric text did not contain a parseable quantity."""


class UnitFamilyMismatch(ClaimcheckError):
    """Two metrics do not share a canonical unit family."""


class DanglingEndpoint(ClaimcheckError):
    """Graph edge references an entity that is not a node."""


class DuplicateEdge(ClaimcheckError):
    """Two graph edges share one edge id."""


class UnknownEntity(ClaimcheckError):
    """Entity id is not present in the graph."""


# --- cross-source layer -----------------------------------------------------

class MissingRating(ClaimcheckError):
    """Consensus input lacks an independence rating for a counter-doc."""


class MissingConsistency(ClaimcheckError):
    """Consensus input lacks a consistency score for a counter-doc."""


class RubricNotEnumerable(ClaimcheckError):
    """Rubric document does not expose an enumerable criteria list."""


# --- assessment layer -------------------------------------------------------

class IncompleteEnrichment(ClaimcheckError):
    """Evidence profile requested before all layers enriched the claim."""

    def __init__(self, missing_layer: str):
        super().__init__(f"claim not enriched by layer: {missing_layer}")
        self.missing_layer = missing_layer


class EmptySamples(ClaimcheckError):
    """Semantic entropy needs at least one sampled conclusion."""


class NoProfiles(ClaimcheckError):
    """Maturity assessment needs at least one evidence profile."""


# --- pipeline ---------------------------------------------------------------

class EmptyCorpus(ClaimcheckError):
    """Corpus directory holds no documents relevant to the query."""


class BudgetExceeded(ClaimcheckError):
    """Document budget hit; partial results persisted with gap markers."""

    exit_code = 4

    def __init__(self, message: str, queued: list[str]):
        super().__init__(message)
        self.queued = queued


class ConfigDrift(ClaimcheckError):
    """Resume attempted with a config that differs from the run snapshot."""


class CorruptManifest(ClaimcheckError):
    """Run manifest cannot be parsed."""
