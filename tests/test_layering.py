"""The package's import graph, read from the source with ``ast``.

Prompt text is assembled in one module that depends on nothing but the
error types, so extraction and fine-tune preparation cannot drift apart,
and the task/slot vocabulary is spelled out once, in ``corpus``; the
matcher names are the keys of ``matching.TIERS``. The report schema,
its renderers and its reader live in ``report``, on ``errors`` and
``scoring`` alone. Both HTTP
clients sit on ``transport``, and the package needs nothing outside the
standard library at run time.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mateval import corpus, report

SRC = Path(__file__).resolve().parent.parent / "src" / "mateval"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _imported(node: ast.ImportFrom) -> list[tuple[str, list[str]]]:
    """(package module, imported names) for one ``from ... import``."""
    if node.level == 1 and node.module is None:  # from . import corpus
        return [(alias.name, []) for alias in node.names]
    module = node.module or ""
    if node.level == 0:
        if not module.startswith("mateval."):
            return []
        module = module.removeprefix("mateval.")
    return [(module, [alias.name for alias in node.names])]


def _imports(tree: ast.Module) -> list[tuple[str, list[str]]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.extend(_imported(node))
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name.removeprefix("mateval."), [])
                for alias in node.names
                if alias.name.startswith("mateval.")
            )
    return found


DEPS = {name: {module for module, _ in _imports(tree)} for name, tree in TREES.items()}


def test_prompts_depends_only_on_errors():
    assert DEPS["prompts"] == {"errors"}


@pytest.mark.parametrize("module", ["finetune", "llm"])
def test_llm_plumbing_stays_below_evaluation(module):
    assert DEPS[module] <= {"corpus", "errors", "prompts", "transport"}


def test_report_depends_only_on_errors_and_scoring():
    assert DEPS["report"] <= {"errors", "scoring"}


def test_corpus_re_exports_the_one_renderer():
    assert corpus.render_report is report.render_report


def test_transport_depends_at_most_on_errors():
    assert DEPS["transport"] <= {"errors"}


def test_matching_does_not_borrow_from_the_chat_client():
    assert "llm" not in DEPS["matching"]


def test_only_the_entry_points_import_evaluation():
    assert {name for name, deps in DEPS.items() if "evaluation" in deps} == {"cli", "__init__"}


# the standard-library modules a function may import, by module
LAZY_IMPORTS = {"transport": {"http.client", "urllib.error", "urllib.parse", "urllib.request"}}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_function_local_imports(module):
    """Imports sit at module top, where the import graph above reads them.

    The one exception is start-up cost, as for threads below: the HTTP stack
    (``http.client`` with ``ssl`` and ``email``) costs every start-up, --help
    included, ~40 ms, so ``transport`` imports these four modules on the first
    request. A function-local import of a mateval module is never allowed.
    """
    tree = TREES[module]
    top_level = {id(node) for node in tree.body}
    allowed = LAZY_IMPORTS.get(module, set())
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top_level
        and not (isinstance(node, ast.Import)
                 and all(alias.name in allowed for alias in node.names))
    ]
    assert nested == []


def test_no_template_constant_leaves_prompts():
    leaked = [
        (name, imported)
        for name, tree in TREES.items()
        if name != "prompts"
        for module, names in _imports(tree)
        if module == "prompts"
        for imported in names
        if imported.isupper()
    ]
    assert leaked == []


def _literals(node_type) -> Counter:
    counts: Counter = Counter()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, node_type):
                try:
                    value = ast.literal_eval(node)
                except ValueError:
                    continue
                counts[repr(value)] += 1
    return counts


def test_vocabulary_is_spelled_out_once():
    assert _literals(ast.Tuple)[repr(("material", "tc", "pressure"))] == 1
    task_classes = {"ner_material": "material", "ner_quantity": "quantity"}
    assert _literals(ast.Dict)[repr(task_classes)] == 1
    # the pseudo-format headers, written by finetune and read by llm
    pseudo_headers = {"material": "materials", "quantity": "quantities"}
    assert _literals(ast.Dict)[repr(pseudo_headers)] == 1
    # the matcher names are the keys of matching.TIERS
    assert _literals(ast.Tuple)[repr(("strict", "soft", "semantic", "formula"))] == 0


def test_threads_come_from_threading_alone():
    # concurrent.futures costs every start-up, --help included, ~10 ms
    imported = {
        alias.name.split(".")[0]
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        (node.module or "").split(".")[0]
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert not imported & {"concurrent", "multiprocessing", "asyncio"}


def _top_level_imports(tree: ast.Module) -> set[str]:
    """First name of every absolute import; relative imports are the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add((node.module or "").split(".")[0])
    return names


@pytest.mark.parametrize("module", sorted(TREES))
def test_runtime_needs_only_the_standard_library(module):
    outside = _top_level_imports(TREES[module]) - {"mateval"} - sys.stdlib_module_names
    assert outside == set()


def test_cli_start_up_loads_only_the_standard_library():
    probe = (
        "import sys; before = set(sys.modules); import mateval.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert loaded - {"mateval"} <= sys.stdlib_module_names


def test_cli_start_up_leaves_the_http_stack_unloaded():
    # transport imports it on the first request; no offline command sends one
    probe = (
        "import sys; import mateval.cli; "
        "print(sorted({'http.client', 'urllib.request', 'ssl', 'email'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert ast.literal_eval(out) == []
