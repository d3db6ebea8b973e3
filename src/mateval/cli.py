"""Command-line entry point.

Machine-readable JSON always goes to stdout; human-readable tables and
progress notes go to stderr (or to files). Exit codes: 0 success, 1
evaluation completed with warnings or skipped matchers, 2 usage error, 3
runtime failure. Identical invocations on identical inputs produce
byte-identical outputs; reports embed configuration, never timestamps,
unless --timestamps is given.
"""

import argparse
import datetime
import json
import os
import secrets
import sys

from . import corpus as corpus_mod
from .elements import load_adjuncts
from .errors import MatEvalError
from .evaluation import (
    EvalConfig,
    evaluate_ner,
    evaluate_re,
)
from .finetune import prepare_finetune, write_finetune_file
from .llm import ChatEndpointConfig, RateLimiter, chat_complete, parse_response
from .matching import TIERS, HttpSimilarityProvider
from .materials import parse_material, expand_substitutions
from .prompts import build_ner_prompt, build_re_prompt, re_prompt_seed

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_USAGE = 2
EXIT_FAILURE = 3


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_json(payload, args) -> None:
    """Print JSON to stdout, optionally mirroring it to --output."""
    output = getattr(args, "output", None)
    if output:
        _check_output(output, getattr(args, "force", False))
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _print_json(payload)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    seed = secrets.randbelow(2**31)
    _note(f"seed: {seed} (selected; pass --seed {seed} to reproduce)")
    return seed


def _check_output(path: str | None, force: bool) -> None:
    if path and os.path.exists(path) and not force:
        raise MatEvalError(f"refusing to overwrite {path} (use --force)")


def _load_lexicon(args):
    if getattr(args, "adjunct_lexicon", None):
        return load_adjuncts(args.adjunct_lexicon)
    return None


def _add_output_flags(parser, default_format="json"):
    parser.add_argument("--output", help="write result to this file")
    parser.add_argument(
        "--format",
        choices=("json", "markdown", "csv"),
        default=default_format,
        help="file format for --output",
    )
    parser.add_argument("--force", action="store_true", help="allow overwriting --output")
    parser.add_argument(
        "--pretty", action="store_true", help="also print a human table to stderr"
    )


def cmd_parse_material(args) -> int:
    pm = parse_material(args.expression, _load_lexicon(args))
    payload = pm.to_dict()
    if args.expand:
        payload["variants"] = [v.to_dict()["composition"] for v in expand_substitutions(pm)]
    _emit_json(payload, args)
    return EXIT_OK


def cmd_match(args) -> int:
    provider = _semantic_provider(args) if args.matcher == "semantic" else None
    if args.matcher == "semantic" and provider is None:
        raise MatEvalError("semantic matching needs --semantic-endpoint")
    tier = TIERS[args.matcher](args.threshold, provider, _load_lexicon(args))
    _emit_json(tier.outcome(args.a, args.b).to_dict(), args)
    return EXIT_OK


def _semantic_provider(args) -> HttpSimilarityProvider | None:
    """Provider from --semantic-endpoint/--timeout, falling back to --config."""
    endpoint = args.semantic_endpoint
    timeout = args.timeout
    if getattr(args, "config", None):
        cfg = ChatEndpointConfig.from_file(args.config)
        endpoint = endpoint or cfg.semantic_endpoint
        if timeout is None:
            timeout = cfg.timeout
    if not endpoint:
        return None
    return HttpSimilarityProvider(endpoint, timeout if timeout is not None else 10.0)


def _run_eval(args, task: str) -> int:
    documents = corpus_mod.load_corpus(args.corpus)
    predictions = corpus_mod.load_predictions(args.predictions)
    matchers = tuple(m.strip() for m in args.matchers.split(",") if m.strip())
    config = EvalConfig(
        task=task,
        matchers=matchers,
        threshold=args.threshold,
        shuffle=getattr(args, "shuffle", "non_shuffled"),
        seed=args.seed if args.seed is not None else 0,
        runs=max(1, len({p.run_label for p in predictions})),
    )
    provider = _semantic_provider(args) if "semantic" in matchers else None
    if task == "re":
        report = evaluate_re(documents, predictions, config, provider)
    else:
        report = evaluate_ner(documents, predictions, config, provider)
    payload = report.to_dict()
    if args.timestamps:
        payload["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
    _check_output(args.output, args.force)
    if args.output:
        corpus_mod.write_report(payload, args.format, args.output)
    _print_json(payload)
    if args.pretty:
        _note(corpus_mod.render_report(payload, "markdown"))
    return EXIT_WARNINGS if (report.skipped or report.warnings) else EXIT_OK


def cmd_eval_ner(args) -> int:
    task = "ner_material" if args.entity_class == "material" else "ner_quantity"
    return _run_eval(args, task)


def cmd_eval_re(args) -> int:
    return _run_eval(args, "re")


def _endpoint_config(args) -> ChatEndpointConfig:
    cfg = (
        ChatEndpointConfig.from_file(args.config)
        if args.config
        else ChatEndpointConfig()
    )
    if args.model:
        cfg.model = args.model
    if args.dry_run:
        cfg.dry_run = True
    if args.fixtures:
        cfg.fixture_dir = args.fixtures
    return cfg


def _load_hints(path: str | None, class_: str) -> dict[str, list[str]]:
    if not path:
        return {}
    hints: dict[str, list[str]] = {}
    for pred in corpus_mod.load_predictions(path):
        hints.setdefault(pred.doc_id, [])
        hints[pred.doc_id].extend(pred.entities.get(class_, []))
    return hints


def cmd_extract(args) -> int:
    documents = corpus_mod.load_corpus(args.corpus)
    cfg = _endpoint_config(args)
    seed = _resolve_seed(args)
    class_ = {"ner_material": "material", "ner_quantity": "quantity"}.get(args.task)
    hints = _load_hints(args.hints, class_ or "material")
    limiter = RateLimiter(cfg.max_concurrency, cfg.min_interval)
    _check_output(args.output, args.force)

    lines = []
    failures = []
    for run_index in range(1, args.runs + 1):
        run_label = f"run{run_index}"
        for doc in sorted(documents, key=lambda d: d.id):
            if args.task == "re":
                entities = {
                    slot: doc.entity_texts(slot)
                    for slot in ("material", "tc", "pressure")
                    if doc.entity_texts(slot)
                }
                bundle = build_re_prompt(
                    doc.text,
                    entities,
                    mode=args.mode,
                    shuffle_seed=(
                        re_prompt_seed(seed, doc.id, run_label)
                        if args.shuffle == "shuffled"
                        else None
                    ),
                    model=cfg.model,
                    temperature=args.temperature,
                )
            else:
                bundle = build_ner_prompt(
                    args.task,
                    doc.text,
                    hints=hints.get(doc.id) if args.mode == "few" else None,
                    model=cfg.model,
                    temperature=args.temperature,
                )
            raw = chat_complete(bundle, cfg, doc_id=doc.id, run=run_label, limiter=limiter)
            try:
                parsed = parse_response(raw, args.task, args.response_format)
            except MatEvalError as exc:
                failures.append(f"{doc.id}/{run_label}: {exc}")
                parsed = []
            record: dict = {"doc_id": doc.id, "run": run_label}
            if args.task == "re":
                record["relations"] = parsed
            else:
                record["entities"] = {class_: parsed}
            lines.append(record)

    serialized = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialized)
    else:
        sys.stdout.write(serialized)
    for failure in failures:
        _note(f"unparseable response: {failure}")
    return EXIT_WARNINGS if failures else EXIT_OK


def cmd_prepare_finetune(args) -> int:
    documents = corpus_mod.load_corpus(args.corpus)
    seed = _resolve_seed(args)
    train, test = prepare_finetune(
        documents,
        args.task,
        args.strategy,
        seed=seed,
        split_ratio=args.split_ratio,
        split_unit=args.split_unit,
    )
    _check_output(args.train_output, args.force)
    _check_output(args.test_output, args.force)
    write_finetune_file(train, args.train_output)
    write_finetune_file(test, args.test_output)
    _print_json(
        {
            "strategy": args.strategy,
            "task": args.task,
            "seed": seed,
            "split_ratio": args.split_ratio,
            "split_unit": args.split_unit,
            "train_records": len(train),
            "test_records": len(test),
            "train_output": args.train_output,
            "test_output": args.test_output,
        }
    )
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        payload = json.load(fh)
    rendered = corpus_mod.render_report(payload, args.format)
    _check_output(args.output, args.force)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        _print_json({"input": args.input, "format": args.format, "output": args.output})
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mateval",
        description="Evaluate materials-science information extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-material", help="parse one material expression")
    p.add_argument("expression")
    p.add_argument("--expand", action="store_true", help="include substitution variants")
    p.add_argument("--adjunct-lexicon", help="JSON file overriding the adjunct lexicon")
    p.add_argument("--output", help="also write the JSON to this file")
    p.add_argument("--force", action="store_true", help="allow overwriting --output")
    p.set_defaults(func=cmd_parse_material)

    p = sub.add_parser("match", help="compare two strings with one matcher")
    p.add_argument("--matcher", choices=("strict", "soft", "semantic", "formula"),
                   required=True)
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--semantic-endpoint", help="similarity service URL")
    p.add_argument("--timeout", type=float, help="similarity request timeout (s)")
    p.add_argument("--adjunct-lexicon", help="JSON file overriding the adjunct lexicon")
    p.add_argument("--config", help="endpoint config file (key=value lines)")
    p.add_argument("--output", help="also write the JSON to this file")
    p.add_argument("--force", action="store_true", help="allow overwriting --output")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_match)

    for name, entity_flag in (("eval-ner", True), ("eval-re", False)):
        p = sub.add_parser(name, help=f"run {name.split('-')[1].upper()} evaluation")
        p.add_argument("--corpus", required=True)
        p.add_argument("--predictions", required=True)
        p.add_argument("--matchers", default="strict",
                       help="comma-separated subset of strict,soft,semantic,formula")
        p.add_argument("--threshold", type=float, default=0.9)
        p.add_argument("--semantic-endpoint")
        p.add_argument("--timeout", type=float, help="similarity request timeout (s)")
        p.add_argument("--config", help="endpoint config file (key=value lines)")
        p.add_argument("--seed", type=int)
        p.add_argument("--timestamps", action="store_true",
                       help="embed a generation timestamp in the report")
        if entity_flag:
            p.add_argument("--class", dest="entity_class",
                           choices=("material", "quantity"), default="material")
            p.set_defaults(func=cmd_eval_ner)
        else:
            p.add_argument("--shuffle", choices=("shuffled", "non_shuffled"),
                           default="non_shuffled")
            p.set_defaults(func=cmd_eval_re)
        _add_output_flags(p)

    p = sub.add_parser("extract", help="build prompts and call the chat endpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", choices=("ner_material", "ner_quantity", "re"),
                   required=True)
    p.add_argument("--mode", choices=("zero", "few"), default="zero")
    p.add_argument("--shuffle", choices=("shuffled", "non_shuffled"),
                   default="non_shuffled")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--hints", help="prediction JSONL with few-shot hints")
    p.add_argument("--config", help="endpoint config file (key=value lines)")
    p.add_argument("--model")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--fixtures", help="canned-response directory for --dry-run")
    p.add_argument("--response-format", choices=("auto", "json", "pseudo"),
                   default="auto")
    p.add_argument("--output", help="predictions JSONL path (default: stdout)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("prepare-finetune", help="write fine-tuning train/test files")
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", choices=("ner_material", "ner_quantity", "re"),
                   required=True)
    p.add_argument("--strategy", choices=("base", "document_order", "augmented"),
                   default="base")
    p.add_argument("--seed", type=int)
    p.add_argument("--split-ratio", type=float, default=0.7)
    p.add_argument("--split-unit", choices=("record", "document"), default="record",
                   help="document keeps all records of a document on one side")
    p.add_argument("--train-output", required=True)
    p.add_argument("--test-output", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_prepare_finetune)

    p = sub.add_parser("report", help="re-render a stored report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="markdown")
    p.add_argument("--output")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatEvalError as exc:
        _note(f"error: {exc}")
        return EXIT_FAILURE
    except OSError as exc:
        _note(f"i/o error: {exc}")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
