"""Per-layer measurements: each mateval module's public functions, called from outside.

``measure`` runs in the benchmark process with mateval imported from
``src``. It calls every layer on the workload's generated inputs, with a
span around each call or loop of calls, and returns the per-layer metrics
as ``{name: (value, unit)}``. Spans live in memory until the end, when they
give each call's total time. Service-bound calls (chat completions,
similarity scores) go to the stub process on a fixed-size sample, so every
workload measures every layer. Layer self times and the stub counters come
from the workload's own CLI commands instead (``run.py``).
"""

import random
import statistics
import sys
from pathlib import Path

from spans import Tracer

SAMPLE_PAIRS = 3000  # candidate pairs timed per matcher tier
HTTP_CALLS = 100  # chat completions timed against the stub
SEMANTIC_PAIRS = 100  # minimum similarity pairs scored against the stub


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(work: Path, seed: int, stubs, runs: int) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from mateval import corpus, evaluation, finetune, llm, matching, materials, prompts, scoring
    from mateval.errors import MatEvalError

    rng = random.Random(seed)
    t = Tracer()
    out: dict[str, tuple[float, str]] = {}

    def total(name: str) -> float:
        return t.totals().get(name, 0.0)

    # corpus
    with t.span("corpus.load_corpus"):
        docs = corpus.load_corpus(str(work / "corpus.jsonl"))
    with t.span("corpus.load_predictions"):
        ner = corpus.load_predictions(str(work / "ner_predictions.jsonl"))
        rel = corpus.load_predictions(str(work / "re_predictions.jsonl"))
    by_id = {d.id: d for d in docs}
    gold = {d.id: d.entity_texts("material") for d in docs}
    all_pairs = [(g, p) for pred in ner for g in gold[pred.doc_id]
                 for p in pred.entities.get("material", [])]
    distinct = sorted(set(all_pairs))
    sample = rng.sample(distinct, min(SAMPLE_PAIRS, len(distinct)))
    out["matching.distinct_pair_ratio"] = (len(distinct) / len(all_pairs), "ratio")

    # materials, over every distinct material string
    strings = sorted({s for pair in distinct for s in pair})
    parsed = []
    with t.span("materials.parse_material"):
        for text in strings:
            try:
                parsed.append(materials.parse_material(text))
            except MatEvalError:
                pass
    variants = {}
    with t.span("materials.expand_substitutions"):
        for pm in parsed:
            try:
                variants[pm.source] = [v.composition for v in materials.expand_substitutions(pm)]
            except MatEvalError:
                pass
    comp_pairs = [(va, vb) for a, b in sample if a in variants and b in variants
                  for va in variants[a] for vb in variants[b]]
    with t.span("materials.compositions_equal"):
        for va, vb in comp_pairs:
            materials.compositions_equal(va, vb)
    out["materials.parse_ok_ratio"] = (len(variants) / len(strings), "ratio")
    out["materials.variants_per_string"] = (
        sum(map(len, variants.values())) / max(1, len(variants)), "ratio")

    # matching: one uncached public matcher call per sampled pair
    tiers = {
        "strict": matching.strict_match,
        "soft": lambda a, b: matching.soft_match(a, b).matched,
        "formula": lambda a, b: matching.formula_match(a, b).matched,
    }
    for tier, fn in tiers.items():
        with t.span(f"matching.{tier}"):
            hits = sum(1 for a, b in sample if fn(a, b))
        out[f"matching.{tier}.pair_us"] = (total(f"matching.{tier}") / len(sample) * 1e6, "us")
        out[f"matching.{tier}.match_ratio"] = (hits / len(sample), "ratio")

    # scoring: count_matches on precomputed strict matrices, then aggregation
    matrices = []
    for pred in ner:
        predicted = [matching.normalize_whitespace(p) for p in pred.entities.get("material", [])]
        expected = [matching.normalize_whitespace(g) for g in gold[pred.doc_id]]
        matrices.append((range(len(expected)), range(len(predicted)),
                         [[g == p for p in predicted] for g in expected]))
    with t.span("scoring.count_matches"):
        counts = [scoring.count_matches(rows, cols, lambda i, j, m=m: m[i][j])
                  for rows, cols, m in matrices]
    with t.span("scoring.aggregate"):
        per_run = [scoring.micro_average(counts[i::runs]) for i in range(runs)]
        scoring.aggregate_runs(per_run)

    # evaluation, one tier per call
    for tier in tiers:
        config = evaluation.EvalConfig(task="ner_material", matchers=(tier,), seed=seed,
                                       runs=runs)
        with t.span(f"evaluation.ner_{tier}"):
            evaluation.evaluate_ner(docs, ner, config)
    blocks = [(by_id[p.doc_id], p.relations) for p in rel]
    supplied = {d.id: {s: d.entity_texts(s) for s in evaluation.RELATION_SLOTS} for d in docs}
    with t.span("evaluation.filter_blocks"):
        kept = sum(len(evaluation.filter_relation_blocks(b, supplied[d.id])) for d, b in blocks)
    n_blocks = sum(len(b) for _, b in blocks)
    out["evaluation.dropped_block_ratio"] = ((n_blocks - kept) / max(1, n_blocks), "ratio")
    with t.span("evaluation.re"):
        report = evaluation.evaluate_re(docs, rel,
                                        evaluation.EvalConfig(task="re", seed=seed, runs=runs))
    with t.span("corpus.render_report"):
        for fmt in ("json", "markdown", "csv"):
            corpus.render_report(report, fmt)

    # prompts
    labels = [f"run{r}" for r in range(1, runs + 1)]
    with t.span("prompts.build_ner_prompt"):
        ner_bundles = {d.id: prompts.build_ner_prompt("ner_material", d.text) for d in docs}
    re_entities = {d.id: {s: d.entity_texts(s) for s in ("material", "tc", "pressure")
                          if d.entity_texts(s)} for d in docs}
    with t.span("prompts.build_re_prompt"):
        re_bundles = {(d.id, label): prompts.build_re_prompt(
            d.text, re_entities[d.id], mode="few",
            shuffle_seed=prompts.re_prompt_seed(seed, d.id, label))
            for d in docs for label in labels}

    # llm: dry-run reads, both response parsers, live calls to the stub
    dry = llm.ChatEndpointConfig(dry_run=True, fixture_dir=str(work / "fixtures"))
    raws = []
    with t.span("llm.dry_run_read"):
        for label in labels:
            for d in docs:
                for task, bundle in (("ner_material", ner_bundles[d.id]),
                                     ("re", re_bundles[d.id, label])):
                    raws.append((task, llm.chat_complete(bundle, dry, d.id, label)))
    pseudo_heads = ("materials:", "material:", "tc:", "pressure:", "None")
    failures = 0
    for fmt, parse in (("json", llm.parse_json_response), ("pseudo", llm.parse_pseudo_format)):
        picked = [(task, raw) for task, raw in raws
                  if raw.startswith(pseudo_heads) == (fmt == "pseudo")]
        with t.span(f"llm.parse_{fmt}"):
            for task, raw in picked:
                try:
                    parse(raw, task)
                except MatEvalError:
                    failures += 1
    out["llm.parse_fail_ratio"] = (failures / len(raws), "ratio")

    live = llm.ChatEndpointConfig.from_file(str(stubs.config))
    limiter = llm.RateLimiter(live.max_concurrency, live.min_interval)
    for i in range(HTTP_CALLS):
        doc = docs[i % len(docs)]
        with t.span("llm.http_call"):
            llm.chat_complete(ner_bundles[doc.id], live, limiter=limiter)
    calls_ms = [d * 1e3 for d in t.durations("llm.http_call")]
    out["llm.http_call_ms_p50"] = (statistics.median(calls_ms), "ms")
    out["llm.http_call_ms_p90"] = (_percentile(calls_ms, 90), "ms")

    # semantic tier on the first documents that give enough pairs
    provider = matching.HttpSimilarityProvider(live.semantic_endpoint, live.timeout)
    provider.score = t.wrap(provider.score, "matching.semantic_call")
    first_run = [p for p in ner if p.run_label == "run1"]
    subset, pairs = [], 0
    for pred in first_run:
        subset.append(pred)
        pairs += len(gold[pred.doc_id]) * len(pred.entities.get("material", []))
        if pairs >= SEMANTIC_PAIRS:
            break
    subset_docs = [by_id[p.doc_id] for p in subset]
    config = evaluation.EvalConfig(task="ner_material", matchers=("semantic",), seed=seed)
    with t.span("evaluation.ner_semantic"):
        evaluation.evaluate_ner(subset_docs, subset, config, provider)
    semantic_ms = [d * 1e3 for d in t.durations("matching.semantic_call")]
    out["matching.semantic_calls"] = (len(semantic_ms), "count")
    out["matching.semantic_call_ms_p50"] = (statistics.median(semantic_ms), "ms")
    out["matching.semantic_call_ms_p90"] = (_percentile(semantic_ms, 90), "ms")

    # finetune
    with t.span("finetune.prepare"):
        train, test = finetune.prepare_finetune(docs, "re", "augmented", seed=seed)
    with t.span("finetune.write"):
        finetune.write_finetune_file(train, str(work / "layers_train.jsonl"))
        finetune.write_finetune_file(test, str(work / "layers_test.jsonl"))
    out["finetune.records_per_doc"] = ((len(train) + len(test)) / len(docs), "ratio")

    for name in ("corpus.load_corpus", "corpus.load_predictions", "corpus.render_report",
                 "materials.parse_material", "materials.expand_substitutions",
                 "materials.compositions_equal", "scoring.count_matches", "scoring.aggregate",
                 "evaluation.ner_strict", "evaluation.ner_soft", "evaluation.ner_formula",
                 "evaluation.re", "evaluation.filter_blocks", "prompts.build_ner_prompt",
                 "prompts.build_re_prompt", "llm.dry_run_read", "llm.parse_json",
                 "llm.parse_pseudo", "finetune.prepare", "finetune.write"):
        out[f"{name}_s"] = (total(name), "s")
    return out
