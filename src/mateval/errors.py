"""Exception hierarchy shared by all mateval modules."""


class MatEvalError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(MatEvalError):
    """Input text was empty or whitespace-only."""


class MixtureNotSupportedError(MatEvalError):
    """Material expression describes a mixture of compounds, which is rejected."""


class UnparseableMaterialError(MatEvalError):
    """No valid chemical composition could be read from the expression."""


class ExpansionLimitError(MatEvalError):
    """Substitution expansion would produce more variants than the configured cap."""


class ProviderUnavailableError(MatEvalError):
    """The external similarity scorer could not be reached or timed out."""


class EmptyRunsError(MatEvalError):
    """Run aggregation requires at least one run."""


class SchemaViolationError(MatEvalError):
    """A corpus or prediction line does not conform to the JSONL schema."""

    def __init__(self, line: int, field: str, message: str):
        super().__init__(f"line {line}, field '{field}': {message}")
        self.line = line
        self.field = field


class ReportSchemaError(MatEvalError):
    """A stored report does not have the schema ``EvalReport.to_dict`` writes."""


class DuplicateIdError(MatEvalError):
    """Two documents in one corpus share an id."""


class UnknownDocumentError(MatEvalError):
    """A prediction references a doc_id absent from the corpus."""


class NoMatchersSelectedError(MatEvalError):
    """An evaluation was requested with an empty matcher set."""


class EmptyTextError(MatEvalError):
    """Prompt assembly requires non-empty passage text."""


class NoEntitiesError(MatEvalError):
    """A relation-extraction prompt needs at least one non-empty entity list."""


class ConfigError(MatEvalError, ValueError):
    """A setting has an unknown key or an invalid value.

    Also a ValueError, so callers that catch ValueError from
    ``ChatEndpointConfig.from_file`` or a library constructor keep working.
    """


class EndpointError(MatEvalError):
    """The chat endpoint failed (after retries, for transient faults)."""


class MissingCredentialError(MatEvalError):
    """The configured credential environment variable is not set."""


class MissingFixtureError(MatEvalError):
    """Dry-run mode found no canned response for the requested key."""


class ResponseParseError(MatEvalError):
    """A model response could not be parsed even after bounded repair.

    The offending text is kept on ``raw`` for auditing.
    """

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


class EmptyCorpusError(MatEvalError):
    """Fine-tune preparation needs a non-empty corpus."""
