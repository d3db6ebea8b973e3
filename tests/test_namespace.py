"""The package namespace: every public name is imported from its submodule
on first access, so ``import mateval`` itself loads no submodule."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mateval

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(probe: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


@pytest.mark.parametrize("name", mateval.__all__)
def test_public_name_is_its_submodules_object(name):
    module = mateval._SOURCE[name]
    value = getattr(mateval, name)
    assert value is getattr(importlib.import_module(f"mateval.{module}"), name)
    assert value.__module__ == f"mateval.{module}"  # the module that defines it


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from mateval import *", namespace)
    assert {name: namespace[name] for name in mateval.__all__} == {
        name: getattr(mateval, name) for name in mateval.__all__}


def test_dir_lists_every_public_name():
    assert set(mateval.__all__) | {"__version__"} <= set(dir(mateval))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mateval.no_such_name  # noqa: B018
    assert not hasattr(mateval, "Tracer")


def test_import_loads_no_submodule():
    probe = (
        "import sys; import mateval; "
        "print(sorted(m for m in sys.modules if m.startswith('mateval.')))"
    )
    assert _fresh(probe).strip() == "[]"


def test_threads_resolving_different_names_first_get_the_right_objects():
    # eight threads, released together, each asks first for a name of another
    # submodule; the switch interval is shortened so their imports interleave
    probe = """
import importlib, json, sys, threading
import mateval
names = ["load_corpus", "evaluate_ner", "prepare_finetune", "parse_response",
         "formula_match", "parse_material", "build_ner_prompt", "render_report"]
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(len(names))
got = {}
def resolve(name):
    barrier.wait()
    got[name] = getattr(mateval, name)
threads = [threading.Thread(target=resolve, args=(n,)) for n in names]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
alive = [t.name for t in threads if t.is_alive()]
right = {n: got.get(n) is getattr(importlib.import_module("mateval." + mateval._SOURCE[n]), n)
         for n in names}
print(json.dumps({"alive": alive, "right": right}))
"""
    result = json.loads(_fresh(probe))
    assert result["alive"] == []
    assert all(result["right"].values()) and len(result["right"]) == 8
