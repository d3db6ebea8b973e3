"""In-memory span tracer for the traced benchmark run.

A span records its name, start and end (``perf_counter_ns``) and the span
that was open on the same thread when it started. Spans stay in memory until
the run ends and are only summarized then. Span names are
``<layer>.<what>``; the layer is the mateval module the call went into.

``instrument`` wraps mateval's public functions from outside, in every
module namespace that bound them, so the program needs no tracing code.
"""

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# public functions the workloads' CLI commands reach, wrapped by ``instrument``
TARGETS = {
    "corpus": ("load_corpus", "load_predictions", "render_report"),
    "materials": ("parse_material", "expand_substitutions", "compositions_equal"),
    "matching": ("strict_match", "soft_match", "semantic_match", "material_variants"),
    "scoring": ("count_matches", "micro_average", "aggregate_runs"),
    "evaluation": ("evaluate_ner", "evaluate_re"),
    "prompts": ("build_ner_prompt", "build_re_prompt"),
    "llm": ("chat_complete", "parse_response", "parse_json_response",
            "parse_pseudo_format"),
    "finetune": ("prepare_finetune", "write_finetune_file"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent span or None]
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.start(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn, name: str):
        start, end = self.start, self.end

        @wraps(fn)
        def traced(*args, **kwargs):
            span = start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return traced

    def totals(self) -> dict[str, float]:
        """Span name -> summed duration in seconds."""
        out: dict[str, int] = defaultdict(int)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return {k: ns / 1e9 for k, ns in out.items()}

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name, in start order."""
        return [(end - start) / 1e9 for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Layer -> seconds spent in its spans minus their child spans."""
        children: dict[int, int] = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[id(parent)] += end - start
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            name, start, end, _ = span
            out[name.split(".", 1)[0]] += (end - start - children[id(span)]) / 1e9
        return dict(out)


def instrument(tracer: Tracer) -> None:
    """Wrap every function in TARGETS wherever a loaded mateval module bound it."""
    import mateval.cli  # noqa: F401  (loads every module a CLI run can reach)
    from mateval.matching import HttpSimilarityProvider

    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "mateval" or n.startswith("mateval.")) and m is not None]
    for module_name, names in TARGETS.items():
        source = sys.modules[f"mateval.{module_name}"]
        for fn_name in names:
            original = getattr(source, fn_name)
            traced = tracer.wrap(original, f"{module_name}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    HttpSimilarityProvider.score = tracer.wrap(
        HttpSimilarityProvider.score, "matching.HttpSimilarityProvider.score")
