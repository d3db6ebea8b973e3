"""Evaluation toolkit for materials-science information extraction.

Parses material expressions into normalized compositions, matches predicted
entities against gold ones (strict / soft / semantic / formula tiers),
scores NER and relation extraction with micro-averaged P/R/F1 across runs,
and provides the LLM plumbing (prompt assembly, chat client, response
parsing, fine-tune data preparation) to rerun extraction pipelines.

Each public name is imported from its submodule on first access (PEP 562),
so ``import mateval`` loads no submodule and a process pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "corpus": ("Document", "EntityMention", "PredictionSet", "RelationGroup", "load_corpus",
               "load_predictions", "save_corpus", "validate_corpus"),
    "evaluation": ("EvalConfig", "evaluate_ner", "evaluate_re", "filter_relation_blocks",
                   "match_relation_groups"),
    "finetune": ("FineTuneRecord", "prepare_finetune", "write_finetune_file"),
    "llm": ("ChatEndpointConfig", "chat_complete", "parse_json_response",
            "parse_pseudo_format", "parse_response"),
    "matching": ("HttpSimilarityProvider", "MatchOutcome", "SimilarityProvider",
                 "formula_match", "ratcliff_obershelp", "semantic_match", "soft_match",
                 "strict_match"),
    "materials": ("ParsedMaterial", "SubstitutionSet", "compositions_equal",
                  "expand_substitutions", "format_composition", "parse_material",
                  "strip_adjuncts"),
    "prompts": ("PromptBundle", "build_ner_prompt", "build_re_prompt", "shuffle_entities"),
    "report": ("EvalReport", "read_report", "render_report", "write_report"),
    "scoring": ("MatchCounts", "RunAggregate", "Scores", "aggregate_runs", "count_matches",
                "micro_average", "prf"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
