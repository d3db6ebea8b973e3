"""The package's import graph, read from the source with ``ast``.

Prompt text is assembled in one module that depends on nothing but the
error types, so extraction and fine-tune preparation cannot drift apart,
and the task/slot vocabulary is spelled out once, in ``corpus``; the
matcher names are the keys of ``matching.TIERS``. The report schema,
its renderers and its reader live in ``report``, on ``errors`` and
``scoring`` alone. Reports, corpora and predictions are all read by the
one schema reader, ``errors.read_as``, below both, and every JSON text by
the one parser, ``errors.read_json``; ``errors`` alone opens files. Both HTTP
clients sit on ``transport``, which also holds the endpoint settings they
read, on ``errors`` alone, and the package needs nothing outside the
standard library at run time. Each CLI command runs only the modules it
uses: an evaluation runs no chat client, a semantic one included, and the
formula parser only when the formula matcher is selected.
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


def _lazy_table_modules(tree: ast.Module) -> set[str]:
    """The submodules named by the package's lazy table (``_EXPORTS`` keys)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _lazy_bound_modules(tree: ast.Module) -> set[str]:
    """The submodules a module binds with ``_lazy("name")``."""
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_lazy" and isinstance(node.args[0], ast.Constant)
    }


DEPS = {name: {module for module, _ in _imports(tree)} for name, tree in TREES.items()}
# the package imports its public names on first access, from the modules its table names
DEPS["__init__"] |= _lazy_table_modules(TREES["__init__"])
# cli binds the modules its commands run lazily, by name
DEPS["cli"] |= _lazy_bound_modules(TREES["cli"])


def test_prompts_depends_only_on_errors():
    assert DEPS["prompts"] == {"errors"}


@pytest.mark.parametrize("module", ["finetune", "llm"])
def test_llm_plumbing_stays_below_evaluation(module):
    assert DEPS[module] <= {"corpus", "errors", "prompts", "transport"}


def test_report_depends_only_on_errors_and_scoring():
    assert DEPS["report"] <= {"errors", "scoring"}


def test_errors_is_a_leaf_holding_the_one_schema_reader():
    assert DEPS["errors"] == set()
    readers = {name for name, tree in TREES.items()
               for module, names in _imports(tree) if module == "errors" and "read_as" in names}
    assert readers == {"corpus", "report", "transport"}  # transport checks its config's field types
    # no other module walks annotations, but for report's writer, the reader's mirror
    walkers = {name for name, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and node.attr in ("get_origin", "get_type_hints")}
    assert walkers == {"errors", "report"}


def _handled(handler: ast.ExceptHandler) -> set[str]:
    """The exception names one ``except`` clause catches."""
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught] if caught else []
    return {ast.unparse(name).split(".")[-1] for name in names}


def _calls(nodes, name: str) -> bool:
    return any(isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
               for tree in nodes for node in ast.walk(tree))


def test_errors_holds_the_one_json_reader():
    """Only ``errors.read_json`` parses JSON, and only it decides what
    unreadable JSON is: no other module parses, names the parser's own
    errors, or catches ValueError around a ``read_json`` call."""
    parsers = {name for name, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "json" and node.attr in ("load", "loads", "JSONDecoder")}
    assert parsers == {"errors"}
    handlers = {name: [node for node in ast.walk(tree) if isinstance(node, ast.Try)]
                for name, tree in TREES.items() if name != "errors"}
    caught = {name for tries in handlers.values() for node in tries
              for handler in node.handlers for name in _handled(handler)}
    assert not caught & {"RecursionError", "JSONDecodeError"}
    value_errors = {name for name, tries in handlers.items() for node in tries
                    if _calls(node.body, "read_json")
                    and any("ValueError" in _handled(h) for h in node.handlers)}
    assert value_errors == set()
    readers = {name for name, tree in TREES.items()
               for module, names in _imports(tree) if module == "errors" and "read_json" in names}
    assert readers == {"corpus", "llm", "matching"}  # report and materials read whole files


def _imported_names(tree: ast.Module) -> set[str]:
    """Every absolute module an import names, ``from importlib import resources``
    as ``importlib.resources`` too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _opens_a_file(tree: ast.Module) -> bool:
    """Whether the module calls the builtin ``open``, an ``io``/``os`` opener
    or a path object's reader or writer; ``errors``' own ``read_text`` and
    ``write_text``, imported by name, do not count."""
    from_errors = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module == "errors" for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            called = node.func.attr
        elif isinstance(node.func, ast.Name) and node.func.id not in from_errors:
            called = node.func.id
        else:
            continue
        if called in ("open", "fdopen", "read_text", "read_bytes", "write_text", "write_bytes"):
            return True
    return False


def _names_utf8(tree: ast.Module) -> bool:
    """Whether a string of the module's code, docstrings aside, says ``UTF-8``."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and "UTF-8" in node.value and id(node) not in docstrings
               for node in ast.walk(tree))


def test_errors_is_the_one_module_that_opens_a_file():
    """How a file's bytes become text, and what an unreadable file is
    called, is decided once, in ``errors``: its ``read_text`` (with
    ``numbered_lines`` and ``read_json_file``) and ``write_text`` serve
    every file mateval reads or writes, dry-run fixtures included, and
    only ``errors`` says "not UTF-8". No module reaches for ``pathlib``,
    ``importlib.resources`` (which loads ``zipfile`` and ``tempfile``) or
    ``logging`` (warnings are one stderr write). Read from the source: the
    interpreter's ``site`` start-up may load the first two itself."""
    assert {name for name, tree in TREES.items() if _opens_a_file(tree)} == {"errors"}
    assert {name for name, tree in TREES.items() if _names_utf8(tree)} == {"errors"}
    unwanted = ("pathlib", "importlib.resources", "logging")
    found = {(name, module) for name, tree in TREES.items() for module in _imported_names(tree)
             if any(module == u or module.startswith(u + ".") for u in unwanted)}
    assert found == set()


def test_corpus_re_exports_the_one_renderer():
    assert corpus.render_report is report.render_report


def test_transport_depends_at_most_on_errors():
    assert DEPS["transport"] <= {"errors"}


def test_matching_does_not_borrow_from_the_chat_client():
    assert "llm" not in DEPS["matching"]


def test_only_the_entry_points_import_evaluation():
    assert {name for name, deps in DEPS.items() if "evaluation" in deps} == {"cli", "__init__"}


# the standard-library modules a function, or a module-level ``try``, may import, by module
LAZY_IMPORTS = {
    "transport": {"http.client", "urllib.error", "urllib.parse", "urllib.request"},
    "cli": {"datetime", "secrets", "traceback"},
    "prompts": {"_sha2", "_sha256", "hashlib"},
}
# the function-local ``from .module import names`` allowed, by module
LAZY_FROM_IMPORTS = {"corpus": {("report", ("render_report",))}}


def _lazy_import_allowed(module: str, node: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(node, ast.Import):
        return all(alias.name in LAZY_IMPORTS.get(module, set()) for alias in node.names)
    if node.level == 0:  # from _sha2 import sha256
        return node.module in LAZY_IMPORTS.get(module, set())
    if node.level != 1:
        return False
    imported = (node.module, tuple(alias.name for alias in node.names))
    return imported in LAZY_FROM_IMPORTS.get(module, set())


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_function_local_imports(module):
    """Imports sit at module top, where the import graph above reads them
    (it reads function-local ones too).

    The exceptions are start-up cost, as for threads below, paid by every
    short ``mateval`` process. The HTTP stack (``http.client`` with ``ssl``
    and ``email``) costs every start-up, --help included, ~40 ms, so
    ``transport`` imports these four modules only when requests are sent.
    ``cli`` imports ``datetime``/``secrets`` only for --timestamps or a drawn
    seed, and ``traceback`` only to print an internal error (the mateval modules it binds at its top run on first use, so
    ``report`` runs no matcher and ``extract`` no scoring). ``corpus``
    imports its ``render_report`` re-export on first access. ``prompts``
    takes SHA-256 in a module-level ``try``, from the interpreter's builtin
    module (``_sha256`` up to 3.11, ``_sha2`` from 3.12) or, where neither is
    built, from ``hashlib``, which maps OpenSSL's libcrypto (~3.5 MB
    resident) into every prompt and fine-tune command. Every other module
    imports at its top.
    """
    tree = TREES[module]
    top_level = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top_level
        and not _lazy_import_allowed(module, node)
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
    # the default model is the endpoint config's; a prompt bundle names none
    assert _literals(ast.Constant)[repr("gpt-3.5-turbo")] == 1


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


# the interpreter's builtin SHA-256 module, by version: sys.stdlib_module_names
# lists only the one its version ships
BUILTIN_SHA256 = {"_sha2", "_sha256"}


@pytest.mark.parametrize("module", sorted(TREES))
def test_runtime_needs_only_the_standard_library(module):
    outside = _top_level_imports(TREES[module]) - {"mateval"} - sys.stdlib_module_names
    if module == "prompts":
        assert BUILTIN_SHA256 & sys.stdlib_module_names
        outside -= BUILTIN_SHA256
    assert outside == set()


def test_cli_start_up_loads_only_the_standard_library():
    probe = (
        "import sys; before = set(sys.modules); import mateval.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", probe], env={"PYTHONPATH": str(SRC.parent)},
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
        [sys.executable, "-B", "-c", probe], env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert ast.literal_eval(out) == []


# a fresh interpreter runs one command, then lists its exit code and every
# module that ran: a module cli binds lazily keeps a ModuleType subclass as
# its type until its first use runs it. LazyLoader locks a first use only
# from Python 3.12.3 on, so the probe also notes the mateval modules still
# unrun when the first helper thread starts; "<listing>.late" lists those
# that ran after it, under "started" ("none": no thread started)
_COMMAND_PROBE = (
    "import sys, threading, types\n"
    "import mateval.cli\n"
    "def unrun():\n"
    "    return {n for n, m in sys.modules.items()\n"
    "            if n.startswith('mateval.') and type(m) is not types.ModuleType}\n"
    "at_first_start = None\n"
    "def start(thread, start=threading.Thread.start):\n"
    "    global at_first_start\n"
    "    if at_first_start is None:\n"
    "        at_first_start = unrun()\n"
    "    start(thread)\n"
    "threading.Thread.start = start\n"
    "try:\n"
    "    code = mateval.cli.main(sys.argv[2:])\n"
    "except SystemExit as exc:\n"  # --help
    "    code = exc.code\n"
    "ran = [n for n, m in sys.modules.items() if type(m) is types.ModuleType]\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write('\\n'.join([str(code), *ran]))\n"
    "late = ['none'] if at_first_start is None else [\n"
    "    'started', *sorted(at_first_start - unrun())]\n"
    "with open(sys.argv[1] + '.late', 'w') as fh:\n"
    "    fh.write('\\n'.join(late))\n"
)
_DATA = Path(__file__).resolve().parent / "data"
_LIBRARY = {f"mateval.{m}" for m in
            ("corpus", "evaluation", "matching", "materials", "llm", "prompts", "finetune")}
_SCORING = {f"mateval.{m}" for m in ("evaluation", "matching", "materials", "scoring", "report")}
_CHAT = {"mateval.llm", "mateval.prompts", "mateval.finetune", "logging", "hashlib"}
_PARSER = {"mateval.materials"}
_OFFLINE = {"http.client", "urllib.request", "datetime", "secrets"}
# records are NamedTuples (dataclasses loads inspect, ast, dis and tokenize),
# and sub-seeds come from the builtin SHA-256 (hashlib maps OpenSSL's libcrypto)
_EVERY = {"dataclasses", "inspect"}
_OPENSSL = {"hashlib", "_hashlib"}


def _run_probe(tmp_path: Path, argv: list, env: dict | None = None) -> tuple[int, set[str]]:
    listing = tmp_path / "modules.txt"
    subprocess.run(
        [sys.executable, "-B", "-c", _COMMAND_PROBE, str(listing), *map(str, argv)],
        env={"PYTHONPATH": str(SRC.parent), **(env or {})}, capture_output=True, check=True,
        timeout=120,
    )
    code, *modules = listing.read_text(encoding="utf-8").split("\n")
    return int(code), set(modules)


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """Predictions (NER and RE) and a stored report from the 5-document fixture corpus."""
    from mateval.cli import main

    work = tmp_path_factory.mktemp("pipeline")
    extract = ["extract", "--corpus", _DATA / "corpus.jsonl", "--dry-run", "--fixtures",
               _DATA / "fixtures", "--seed", "7"]
    for task, runs in (("ner_material", 3), ("re", 1)):  # the fixtures' runs
        assert main(list(map(str, [*extract, "--task", task, "--runs", runs, "--output",
                                   work / f"{task}.jsonl"]))) in (0, 1)
    assert main(list(map(str, ["eval-ner", "--corpus", _DATA / "corpus.jsonl", "--predictions",
                               work / "ner_material.jsonl", "--output", work / "report.json"]))
                ) in (0, 1)
    return work


def _command(name: str, work: Path) -> list:
    corpus = ["--corpus", _DATA / "corpus.jsonl"]
    return {
        "--help": ["--help"],
        "report": ["report", "--input", work / "report.json", "--format", "markdown"],
        "extract --dry-run": ["extract", *corpus, "--task", "re", "--dry-run", "--fixtures",
                              _DATA / "fixtures", "--seed", "3", "--shuffle", "shuffled"],
        "prepare-finetune": ["prepare-finetune", *corpus, "--task", "re", "--seed", "1",
                             "--train-output", work / "train.jsonl",
                             "--test-output", work / "test.jsonl", "--force"],
        "eval-ner": ["eval-ner", *corpus, "--predictions", work / "ner_material.jsonl",
                     "--matchers", "strict,soft,formula"],
        "eval-re": ["eval-re", *corpus, "--predictions", work / "re.jsonl"],
        # nothing listens on port 9: the matcher is skipped, with exit code 1
        "eval-ner --matchers semantic": ["eval-ner", *corpus, "--predictions",
                                         work / "ner_material.jsonl", "--matchers", "semantic",
                                         "--semantic-endpoint", "http://127.0.0.1:9/score"],
        "match --matcher strict": ["match", "--matcher", "strict", "MgB2", "MgB2"],
    }[name]


# modules each command must not run: --help and report no library module,
# the offline prompt and fine-tune commands no scoring, eval-* no chat client,
# a command without the formula matcher no formula parser, no command
# dataclasses, the offline prompt and fine-tune commands no OpenSSL, and
# extract no logging (its warnings are stderr writes). A semantic
# evaluation sends requests, and urllib.request loads hashlib
COMMAND_MUST_NOT_LOAD = {
    "--help": _LIBRARY | _OFFLINE | _EVERY,
    "report": _LIBRARY | _OFFLINE | _EVERY,
    "extract --dry-run": _SCORING | {"statistics", "logging"} | _OFFLINE | _EVERY | _OPENSSL,
    "prepare-finetune": _SCORING | {"statistics"} | _OFFLINE | _EVERY | _OPENSSL,
    "eval-ner": _CHAT | _OFFLINE | _EVERY,
    "eval-re": _CHAT | _PARSER | _OFFLINE | _EVERY,
    "eval-ner --matchers semantic": (_CHAT - {"hashlib"}) | _PARSER | _EVERY,
    "match --matcher strict": _CHAT | _PARSER | _OFFLINE | _EVERY,
}


def test_cli_binds_command_modules_unrun_as_an_import_would():
    # each is in sys.modules and on the package, not yet run; a later import
    # of one runs and returns that same object
    probe = (
        "import sys, types\n"
        "import mateval, mateval.cli\n"
        "names = " + repr(sorted(_lazy_bound_modules(TREES["cli"]))) + "\n"
        "bound = [getattr(mateval.cli, n) for n in names]\n"
        "same = all(m is sys.modules['mateval.' + n] is getattr(mateval, n)\n"
        "           for n, m in zip(names, bound))\n"
        "unrun = [type(m) is not types.ModuleType for m in bound]\n"
        "from mateval.corpus import load_corpus\n"
        "print([same, unrun, load_corpus is mateval.cli.corpus.load_corpus,\n"
        "       type(mateval.cli.corpus) is types.ModuleType])\n"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", probe], env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    same, unrun, identical, ran = ast.literal_eval(out)
    assert same and all(unrun) and len(unrun) == 9
    assert identical and ran


@pytest.mark.parametrize("name", COMMAND_MUST_NOT_LOAD)
def test_each_command_loads_only_what_it_runs(name, pipeline_files, tmp_path):
    code, loaded = _run_probe(tmp_path, _command(name, pipeline_files))
    assert code in (0, 1) and "mateval.cli" in loaded
    assert sorted(loaded & COMMAND_MUST_NOT_LOAD[name]) == []


def test_formula_evaluation_runs_the_parser_before_counting(pipeline_files):
    # the parser runs on the main thread before the first document is
    # counted, strict's included, not at the first formula key
    probe = (
        "import sys, types\n"
        "import mateval.cli, mateval.scoring\n"
        "count, ran = mateval.scoring.count_matches, []\n"
        "def first_count(*args, **kwargs):\n"
        "    if not ran:\n"
        "        ran.append(type(sys.modules['mateval.materials']) is types.ModuleType)\n"
        "    return count(*args, **kwargs)\n"
        "mateval.scoring.count_matches = first_count\n"
        "print([mateval.cli.main(sys.argv[1:]), ran])\n"
    )
    argv = ["eval-ner", "--corpus", _DATA / "corpus.jsonl", "--predictions",
            pipeline_files / "ner_material.jsonl", "--matchers", "strict,formula"]
    out = subprocess.run(
        [sys.executable, "-B", "-c", probe, *map(str, argv)],
        env={"PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True, check=True,
        timeout=120,
    ).stdout
    code, ran = ast.literal_eval(out.splitlines()[-1])
    assert code in (0, 1) and ran == [True]


@pytest.mark.parametrize("command", [
    "extract", "eval-ner --matchers semantic", "eval-ner --matchers semantic,formula",
    "eval-re --matchers semantic,formula"])
def test_helper_threads_run_no_module_first(
        command, chat_stub, semantic_endpoint, pipeline_files, tmp_path):
    # four requests in flight: each command must run, on the main thread,
    # every module its helper threads use before it starts them (a formula
    # matcher's parser included)
    config = tmp_path / "endpoint.cfg"
    config.write_text(f"base_url = {chat_stub.url}\ncredential_env = MATEVAL_PROBE_KEY\n"
                      f"max_concurrency = 4\nsemantic_endpoint = {semantic_endpoint}\n")
    inputs = ["--corpus", _DATA / "corpus.jsonl", "--config", config]
    argv = {
        "extract": ["extract", *inputs, "--task", "re", "--seed", "1"],
        "eval-ner --matchers semantic": ["eval-ner", *inputs, "--predictions",
                                         pipeline_files / "ner_material.jsonl",
                                         "--matchers", "semantic"],
        "eval-ner --matchers semantic,formula": [
            "eval-ner", *inputs, "--predictions", pipeline_files / "ner_material.jsonl",
            "--matchers", "semantic,formula"],
        "eval-re --matchers semantic,formula": [
            "eval-re", *inputs, "--predictions", pipeline_files / "re.jsonl",
            "--matchers", "semantic,formula"],
    }[command]
    code, _ = _run_probe(tmp_path, argv, {"MATEVAL_PROBE_KEY": "probe-key"})
    started, *late = (tmp_path / "modules.txt.late").read_text(encoding="utf-8").split("\n")
    assert code in (0, 1) and started == "started"
    assert late == []
