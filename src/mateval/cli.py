"""Command-line entry point.

Machine-readable JSON always goes to stdout; human-readable tables and
progress notes go to stderr (or to files). Exit codes: 0 success, 1
evaluation completed with warnings or skipped matchers, 2 usage error, 3
runtime failure, 4 internal error (a bug; its traceback goes to stderr).
Identical invocations on identical inputs produce byte-identical outputs;
reports embed configuration, never timestamps, unless --timestamps is given.

The mateval modules the commands run are bound below but run on their
first attribute access, so a process runs only what its command uses:
``--help`` and ``report`` run no matcher, corpus reader or chat client;
``eval-*`` runs no chat client, and the formula parser only for ``formula``.
"""

import argparse
import importlib.util
import json
import os
import sys

from .errors import ConfigError, MatEvalError, note, write_text


def _lazy(name: str):
    """``mateval.<name>``, registered now and run on its first attribute access.

    The module sits in ``sys.modules`` and on the package as an import
    would leave it, so later imports of it get this object. LazyLoader
    locks a first use only from Python 3.12.3 on, so each command first
    uses its modules on the main thread, before ``RateLimiter.map`` starts
    helpers.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


corpus = _lazy("corpus")
evaluation = _lazy("evaluation")
finetune = _lazy("finetune")
llm = _lazy("llm")
matching = _lazy("matching")
materials = _lazy("materials")
prompts = _lazy("prompts")
report = _lazy("report")
transport = _lazy("transport")

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_USAGE = 2
EXIT_FAILURE = 3
EXIT_INTERNAL = 4


def _emit_json(payload, args=None) -> None:
    """Print JSON to stdout, optionally mirroring it to --output."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        write_text(args.output, text)
    sys.stdout.write(text)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    import secrets

    seed = secrets.randbelow(2**31)
    note(f"seed: {seed} (selected; pass --seed {seed} to reproduce)")
    return seed


def _load_lexicon(args):
    if getattr(args, "adjunct_lexicon", None):
        return materials.load_adjuncts(args.adjunct_lexicon)
    return None


def _add_output_flags(parser):
    parser.add_argument("--output", help="write result to this file")
    parser.add_argument(
        "--format",
        choices=("json", "markdown", "csv"),
        help="file format for --output (default: json)",
    )
    parser.add_argument("--force", action="store_true", help="allow overwriting --output")
    parser.add_argument(
        "--pretty", action="store_true", help="also print a human table to stderr"
    )


class _MatcherNames:
    """The keys of ``matching.TIERS`` as argparse choices, read when a name is
    checked or listed: building the parser runs no matcher."""

    def __iter__(self):
        return iter(matching.TIERS)

    def __contains__(self, name) -> bool:
        return name in matching.TIERS


def _threshold(args) -> float:
    """--threshold, or the matchers' default when it is not given."""
    return matching.DEFAULT_THRESHOLD if args.threshold is None else args.threshold


def cmd_parse_material(args) -> int:
    pm = materials.parse_material(args.expression, _load_lexicon(args))
    payload = pm.to_dict()
    if args.expand:
        payload["variants"] = [
            v.to_dict()["composition"] for v in materials.expand_substitutions(pm)]
    _emit_json(payload, args)
    return EXIT_OK


def cmd_match(args) -> int:
    _refuse_unread_scoring_flags(args, [args.matcher])
    threshold = _threshold(args)
    matching.check_threshold(threshold)
    read = matching.TIERS[args.matcher].reads
    provider = _semantic_provider(args) if "provider" in read else None
    if "provider" in read and provider is None:
        raise MatEvalError("semantic matching needs --semantic-endpoint")
    tier = matching.TIERS[args.matcher](threshold, provider, _load_lexicon(args))
    _emit_json(tier.outcome(args.a, args.b).to_dict(), args)
    return EXIT_OK


# argparse dest of each endpoint flag -> the ChatEndpointConfig field it sets
_CONFIG_FLAGS = {"model": "model", "fixtures": "fixture_dir", "dry_run": "dry_run",
                 "semantic_endpoint": "semantic_endpoint", "timeout": "timeout"}


def _endpoint_config(args) -> "transport.ChatEndpointConfig":
    """--config (or the defaults), then every endpoint flag given, each set
    and checked as the same key in the file would be."""
    cfg = (transport.ChatEndpointConfig.from_file(args.config) if args.config
           else transport.ChatEndpointConfig())
    for dest, key in _CONFIG_FLAGS.items():
        text = getattr(args, dest, None)
        if text is not None:
            try:
                cfg = cfg.with_setting(key, text)
            except ConfigError as exc:
                raise ConfigError(f"--{dest.replace('_', '-')}: {exc}") from exc
    return cfg


# argparse dest of each scoring flag of match and eval-* -> its setting in matching.Tier.reads
_SCORING_FLAGS = {"threshold": "threshold", "config": "provider", "semantic_endpoint": "provider",
                  "timeout": "provider", "adjunct_lexicon": "lexicon"}


def _refuse_unread_scoring_flags(args, matchers) -> None:
    """Refuse the first scoring flag given that no known name in ``matchers`` reads."""
    for dest, setting in _SCORING_FLAGS.items():
        if getattr(args, dest, None) is not None and not any(
                setting in matching.TIERS[m].reads for m in matchers if m in matching.TIERS):
            readers = [name for name, tier in matching.TIERS.items() if setting in tier.reads]
            tail = "s, and neither is" if len(readers) > 1 else ", and it is not"
            raise ConfigError(f"--{dest.replace('_', '-')} is read only by the "
                              f"{' and '.join(readers)} matcher{tail} selected")


def _semantic_provider(args) -> "matching.HttpSimilarityProvider | None":
    """Similarity client of the resolved endpoint config; None without an endpoint."""
    cfg = _endpoint_config(args)
    if not cfg.semantic_endpoint:
        return None
    return matching.HttpSimilarityProvider(
        cfg.semantic_endpoint,
        cfg.timeout,
        max_concurrency=cfg.max_concurrency,
        min_interval=cfg.min_interval,
    )


def cmd_eval(args) -> int:
    task = f"ner_{args.entity_class}" if args.command == "eval-ner" else "re"
    if args.format and not args.output:  # stdout is always JSON
        raise ConfigError("--format applies to --output, and no --output was given")
    matchers = tuple(m.strip() for m in args.matchers.split(",") if m.strip())
    _refuse_unread_scoring_flags(args, matchers)
    documents = corpus.load_corpus(args.corpus)
    predictions = corpus.load_predictions(args.predictions, {doc.id for doc in documents})
    config = evaluation.EvalConfig(
        task=task,
        matchers=matchers,
        threshold=_threshold(args),
        seed=args.seed if args.seed is not None else 0,
    )
    read = matching.settings_read(config.matchers)
    if "lexicon" in read:  # the parser reads it: run the parser on the main thread, before counting
        materials.parse_material  # noqa: B018  (the first attribute access runs it)
    provider = _semantic_provider(args) if "provider" in read else None
    evaluate = evaluation.evaluate_re if task == "re" else evaluation.evaluate_ner
    result = evaluate(documents, predictions, config, provider)
    if args.timestamps:
        import datetime

        result = result._replace(
            generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat())
    rendered = report.render_report(result, "json")  # once: indent runs the pure-Python encoder
    if args.output:
        write_text(args.output, rendered if args.format in (None, "json")
                   else report.render_report(result, args.format))
    sys.stdout.write(rendered)
    if args.pretty:
        note(report.render_report(result, "markdown"))
    return EXIT_WARNINGS if (result.skipped or result.warnings) else EXIT_OK


def _load_hints(path: str, class_: str, known: set[str]) -> dict[str, list[str]]:
    """Each document's ``class_`` entities in a hints file of one line per
    document, each a document in ``known``."""
    hints: dict[str, list[str]] = {}
    for pred in corpus.load_predictions(path, known):
        if pred.doc_id in hints:
            raise ConfigError(f"--hints {path}: document {pred.doc_id!r} has more than "
                              f"one line (one run per document)")
        hints[pred.doc_id] = pred.entities.get(class_, [])
    return hints


def cmd_extract(args) -> int:
    if args.runs < 1:
        raise ConfigError(f"--runs: must be >= 1, got {args.runs}")
    if bool(args.hints) != (args.mode == "few" and args.task != "re"):
        raise ConfigError("few-shot NER (--mode few with an ner_* task) needs --hints, "
                          "and nothing else reads them")
    if args.shuffle == "shuffled" and args.task != "re":
        raise ConfigError("--shuffle shuffled orders the entities of RE prompts; "
                          f"--task {args.task} reads no shuffle")
    documents = corpus.load_corpus(args.corpus)
    cfg = _endpoint_config(args)
    # only a shuffled RE prompt reads a seed
    seed = _resolve_seed(args) if args.task == "re" and args.shuffle == "shuffled" else None
    class_ = corpus.TASK_CLASSES.get(args.task)
    hints = _load_hints(args.hints, class_, {doc.id for doc in documents}) if args.hints else {}
    # dry-run reads local fixtures: no endpoint to wait on, so threads only
    # contend for the interpreter lock
    limiter = llm.RateLimiter(1 if cfg.dry_run else cfg.max_concurrency, cfg.min_interval)

    docs = sorted(documents, key=lambda d: d.id)
    skipped = []
    if args.task == "re":  # nothing to relate: skipped, as in prepare-finetune
        skipped = [doc.id for doc in docs if not doc.relation_entities()]
        docs = [doc for doc in docs if doc.relation_entities()]
    for doc_id in skipped:
        note(f"skipped {doc_id}: no material, tc or pressure entities to relate")
    jobs = []  # (doc_id, run_label, bundle) in output order
    for run_index in range(1, args.runs + 1):
        run_label = f"run{run_index}"
        for doc in docs:
            if args.task == "re":
                bundle = prompts.build_re_prompt(
                    doc.text,
                    doc.relation_entities(),
                    mode=args.mode,
                    shuffle_seed=(
                        None if seed is None else prompts.re_prompt_seed(seed, doc.id, run_label)
                    ),
                )
            else:
                bundle = prompts.build_ner_prompt(args.task, doc.text, hints=hints.get(doc.id))
            jobs.append((doc.id, run_label, bundle))
    # up to max_concurrency requests at once; responses keep (run, doc) order
    raws = limiter.map(
        lambda job: llm.chat_complete(job[2], cfg, doc_id=job[0], run=job[1], limiter=limiter),
        jobs,
    )

    lines = []
    failures = []
    for (doc_id, run_label, _), raw in zip(jobs, raws):
        try:
            parsed = llm.parse_response(raw, args.task)
        except MatEvalError as exc:
            failures.append(f"{doc_id}/{run_label}: {exc}")
            parsed = []
        record: dict = {"doc_id": doc_id, "run": run_label}
        if args.task == "re":
            record["relations"] = parsed
        else:
            record["entities"] = {class_: parsed}
        lines.append(record)

    serialized = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    if args.output:
        write_text(args.output, serialized)
    else:
        sys.stdout.write(serialized)
    for failure in failures:
        note(f"unparseable response: {failure}")
    return EXIT_WARNINGS if failures or skipped else EXIT_OK


def cmd_prepare_finetune(args) -> int:
    if os.path.realpath(args.train_output) == os.path.realpath(args.test_output):
        raise ConfigError(f"--train-output and --test-output are one file: {args.test_output}")
    documents = corpus.load_corpus(args.corpus)
    seed = _resolve_seed(args)
    train, test = finetune.prepare_finetune(
        documents,
        args.task,
        args.strategy,
        seed=seed,
        split_ratio=args.split_ratio,
        split_unit=args.split_unit,
    )
    finetune.write_finetune_file(train, args.train_output)
    finetune.write_finetune_file(test, args.test_output)
    _emit_json(
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
    stored = report.read_report(args.input)
    if args.output:
        report.write_report(stored, args.format, args.output)
        _emit_json({"input": args.input, "format": args.format, "output": args.output})
    else:
        sys.stdout.write(report.render_report(stored, args.format))
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

    scoring = argparse.ArgumentParser(add_help=False)  # flags of match and eval-*
    scoring.add_argument("--threshold", type=float)
    scoring.add_argument("--semantic-endpoint", help="similarity service URL")
    scoring.add_argument("--timeout", help="similarity request timeout (s)")
    scoring.add_argument("--config", help="endpoint config file (key=value lines)")

    p = sub.add_parser("match", parents=[scoring], help="compare two strings with one matcher")
    # a metavar, or adding the argument would list the choices
    p.add_argument("--matcher", choices=_MatcherNames(), required=True, metavar="MATCHER",
                   help="one of %(choices)s")
    p.add_argument("--adjunct-lexicon", help="JSON file overriding the adjunct lexicon")
    p.add_argument("--output", help="also write the JSON to this file")
    p.add_argument("--force", action="store_true", help="allow overwriting --output")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_match)

    for name in ("eval-ner", "eval-re"):
        p = sub.add_parser(name, parents=[scoring],
                           help=f"run {name.split('-')[1].upper()} evaluation")
        p.add_argument("--corpus", required=True)
        p.add_argument("--predictions", required=True)
        p.add_argument("--matchers", default="strict",
                       help="comma-separated subset of the match --matcher choices")
        p.add_argument("--seed", type=int)
        p.add_argument("--timestamps", action="store_true",
                       help="embed a generation timestamp in the report")
        if name == "eval-ner":
            p.add_argument("--class", dest="entity_class",
                           choices=("material", "quantity"), default="material")
        p.set_defaults(func=cmd_eval)
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
    p.add_argument("--hints", help="prediction JSONL of few-shot NER hints, one line per document")
    p.add_argument("--config", help="endpoint config file (key=value lines)")
    p.add_argument("--model")
    p.add_argument("--dry-run", action="store_const", const="true")
    p.add_argument("--fixtures", help="canned-response directory for --dry-run")
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
        # refuse before any work: a semantic evaluation pays for its requests
        for name in ("output", "train_output", "test_output"):
            path = getattr(args, name, None)
            if path and os.path.exists(path) and not args.force:
                raise MatEvalError(f"refusing to overwrite {path} (use --force)")
        return args.func(args)
    except MatEvalError as exc:
        note(f"error: {exc}")
        return EXIT_FAILURE
    except OSError as exc:
        note(f"i/o error: {exc}")
        return EXIT_FAILURE
    except Exception:  # a bug, not a finished run: never the warnings code
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
