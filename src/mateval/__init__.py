"""Evaluation toolkit for materials-science information extraction.

Parses material expressions into normalized compositions, matches predicted
entities against gold ones (strict / soft / semantic / formula tiers),
scores NER and relation extraction with micro-averaged P/R/F1 across runs,
and provides the LLM plumbing (prompt assembly, chat client, response
parsing, fine-tune data preparation) to rerun extraction pipelines.
"""

from .corpus import (
    Document,
    EntityMention,
    PredictionSet,
    RelationGroup,
    load_corpus,
    load_predictions,
    save_corpus,
    validate_corpus,
)
from .evaluation import (
    EvalConfig,
    evaluate_ner,
    evaluate_re,
    filter_relation_blocks,
    match_relation_groups,
)
from .finetune import FineTuneRecord, prepare_finetune, write_finetune_file
from .llm import (
    ChatEndpointConfig,
    chat_complete,
    parse_json_response,
    parse_pseudo_format,
    parse_response,
)
from .matching import (
    HttpSimilarityProvider,
    MatchOutcome,
    SimilarityProvider,
    formula_match,
    ratcliff_obershelp,
    semantic_match,
    soft_match,
    strict_match,
)
from .materials import (
    ParsedMaterial,
    SubstitutionSet,
    compositions_equal,
    expand_substitutions,
    format_composition,
    parse_material,
    strip_adjuncts,
)
from .prompts import PromptBundle, build_ner_prompt, build_re_prompt, shuffle_entities
from .report import EvalReport, read_report, render_report, write_report
from .scoring import (
    MatchCounts,
    RunAggregate,
    Scores,
    aggregate_runs,
    count_matches,
    micro_average,
    prf,
)

__version__ = "0.1.0"

__all__ = [
    "ChatEndpointConfig",
    "Document",
    "EntityMention",
    "EvalConfig",
    "EvalReport",
    "FineTuneRecord",
    "HttpSimilarityProvider",
    "MatchCounts",
    "MatchOutcome",
    "ParsedMaterial",
    "PredictionSet",
    "PromptBundle",
    "RelationGroup",
    "RunAggregate",
    "Scores",
    "SimilarityProvider",
    "SubstitutionSet",
    "aggregate_runs",
    "build_ner_prompt",
    "build_re_prompt",
    "chat_complete",
    "compositions_equal",
    "count_matches",
    "evaluate_ner",
    "evaluate_re",
    "expand_substitutions",
    "filter_relation_blocks",
    "format_composition",
    "formula_match",
    "load_corpus",
    "load_predictions",
    "match_relation_groups",
    "micro_average",
    "parse_json_response",
    "parse_material",
    "parse_pseudo_format",
    "parse_response",
    "prepare_finetune",
    "prf",
    "ratcliff_obershelp",
    "read_report",
    "render_report",
    "save_corpus",
    "semantic_match",
    "shuffle_entities",
    "soft_match",
    "strict_match",
    "strip_adjuncts",
    "validate_corpus",
    "write_finetune_file",
    "write_report",
]
