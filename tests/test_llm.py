"""Tests for prompt assembly, the chat client, response parsing, and
fine-tune data preparation."""

import json
import os
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mateval import llm
from mateval.corpus import (
    ENTITY_CLASSES,
    TASK_CLASSES,
    Document,
    EntityMention,
    RelationGroup,
    load_corpus,
)
from mateval.errors import (
    EmptyCorpusError,
    EmptyTextError,
    EndpointError,
    MissingCredentialError,
    MissingFixtureError,
    NoEntitiesError,
    ResponseParseError,
    read_json,
)
from mateval.finetune import (
    FineTuneRecord,
    prepare_finetune,
    render_pseudo_entities,
    render_pseudo_relations,
    write_finetune_file,
)
from mateval.llm import (
    ChatEndpointConfig,
    _strip_code_fences,
    chat_complete,
    parse_json_response,
    parse_pseudo_format,
    parse_response,
)
from mateval.prompts import (
    build_ner_prompt,
    build_re_prompt,
    derive_subseed,
    shuffle_entities,
)

DATA = Path(__file__).parent / "data"


class TestNerPrompt:
    def test_material_template_content(self):
        bundle = build_ner_prompt("ner_material", "some passage")
        assert (
            "chemical formula with variables not substituted, like La(1-x)Fe(x)"
            in bundle.user
        )
        assert "What are the superconductor materials mentioned in the text?" in bundle.user
        assert bundle.system.endswith("some passage")
        assert "don't try to make up an answer" in bundle.system

    def test_quantity_template_content(self):
        bundle = build_ner_prompt("ner_quantity", "The soda can's volume was 355 ml")
        assert 'the quantity is "355 ml"' in bundle.user
        assert "Extract all the Quantities in the text." in bundle.user

    def test_hints_block(self):
        bundle = build_ner_prompt("ner_material", "text", hints=["MgB2"])
        assert "Here are some examples appearing in the text: MgB2" in bundle.user
        without = build_ner_prompt("ner_material", "text")
        assert "Here are some examples" not in without.user

    def test_format_instructions_schema(self):
        bundle = build_ner_prompt("ner_material", "text")
        assert "material_extra_info" in bundle.format_instructions
        assert bundle.format_instructions in bundle.user_message()

    def test_empty_text(self):
        with pytest.raises(EmptyTextError):
            build_ner_prompt("ner_material", "   ")


RE_ENTITIES = {
    "material": ["MgB2", "H2S", "H3S"],
    "tc": ["39 K", "150 K"],
    "pressure": ["150 GPa"],
}


class TestRePrompt:
    def test_few_shot_examples_present(self):
        bundle = build_re_prompt("text here", RE_ENTITIES, mode="few")
        assert "The researchers of Mg have discovered that MgB2 and MgB3" in bundle.user
        assert bundle.user.count("--------") >= 4
        assert "if material is not specified, ignore the relation block" in bundle.user

    def test_zero_shot_has_no_delimiters(self):
        bundle = build_re_prompt("text here", RE_ENTITIES, mode="zero")
        assert "--------" not in bundle.user
        assert "if material is not specified, ignore the relation block" in bundle.user

    def test_entity_lists_rendered(self):
        bundle = build_re_prompt("text", RE_ENTITIES)
        assert "materials: MgB2, H2S, H3S" in bundle.user
        assert "tcs: 39 K, 150 K" in bundle.user
        assert "pressures: 150 GPa" in bundle.user

    def test_shuffle_seed_is_deterministic(self):
        a = build_re_prompt("text", RE_ENTITIES, shuffle_seed=11)
        b = build_re_prompt("text", RE_ENTITIES, shuffle_seed=11)
        assert a.user == b.user
        unshuffled = build_re_prompt("text", RE_ENTITIES)
        assert sorted(a.user) == sorted(unshuffled.user)

    def test_no_entities(self):
        with pytest.raises(NoEntitiesError):
            build_re_prompt("text", {"material": []})

    def test_system_prompt_mentions_none_refusal(self):
        bundle = build_re_prompt("text", RE_ENTITIES)
        assert 'just answer "None"' in bundle.system

    @pytest.mark.parametrize("text, entities", [
        ("A film {entities} at 39 K", {"material": ["MgB2"], "tc": ["39 K"]}),
        ("MgB2 at 39 K", {"material": ["MgB2 {text}"], "tc": ["39 K"]}),
    ], ids=["placeholder in passage", "placeholder in entity"])
    def test_template_is_filled_in_one_pass(self, text, entities):
        # neither placeholder is read again inside what filled the other
        user = build_re_prompt(text, entities).user
        assert user.count(text) == 1
        assert user.count(entities["material"][0]) == 1
        assert user.count("materials: ") == 1


class TestChatComplete:
    def test_dry_run_returns_fixture_verbatim(self):
        cfg = ChatEndpointConfig(dry_run=True, fixture_dir=str(DATA / "fixtures"))
        bundle = build_ner_prompt("ner_material", "text")
        raw = chat_complete(bundle, cfg, doc_id="d1", run="run1")
        assert raw == '[{"material": "MgB2"}]'

    def test_dry_run_missing_fixture(self):
        cfg = ChatEndpointConfig(dry_run=True, fixture_dir=str(DATA / "fixtures"))
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(MissingFixtureError):
            chat_complete(bundle, cfg, doc_id="ghost", run="run1")

    @pytest.mark.parametrize("doc_id, run", [
        ("../outside", "run1"), ("d1", "../run1"), ("..", "run1"), (".", "run1"),
        ("", "run1"), ("d1", ""), ("d1/..", "run1"), ("/tmp", "run1"),
        (os.path.abspath("d1"), "run1"), ("d1", f"x{os.sep}run1"),
    ])
    def test_dry_run_keys_stay_inside_the_fixture_directory(self, tmp_path, doc_id, run):
        # a fixture beside the fixture directory that each escape would reach
        fixtures = tmp_path / "fx"
        fixtures.mkdir()
        outside = tmp_path / "outside" / "ner_material" / "run1.txt"
        outside.parent.mkdir(parents=True)
        outside.write_text("[]", encoding="utf-8")
        cfg = ChatEndpointConfig(dry_run=True, fixture_dir=str(fixtures))
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(MissingFixtureError, match="is not one path component") as caught:
            chat_complete(bundle, cfg, doc_id=doc_id, run=run)
        assert repr(doc_id if run == "run1" else run) in str(caught.value)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_dry_run_reads_crlf_and_cr_fixtures_as_lf(self, tmp_path, newline):
        answer = "materials:\n - MgB2\n - Nb3Sn\n"
        fixture = tmp_path / "d1" / "ner_material" / "run1.txt"
        fixture.parent.mkdir(parents=True)
        fixture.write_bytes(answer.replace("\n", newline).encode("utf-8"))
        cfg = ChatEndpointConfig(dry_run=True, fixture_dir=str(tmp_path))
        bundle = build_ner_prompt("ner_material", "text")
        assert chat_complete(bundle, cfg, doc_id="d1", run="run1") == answer

    def test_dry_run_never_touches_network(self, fake_post):
        calls = fake_post("answer")
        cfg = ChatEndpointConfig(dry_run=True, fixture_dir=str(DATA / "fixtures"))
        bundle = build_ner_prompt("ner_material", "text")
        raw = chat_complete(bundle, cfg, doc_id="d1", run="run1")
        assert raw and calls == []

    def test_missing_credential_before_any_request(self, monkeypatch, fake_post):
        monkeypatch.delenv("MATEVAL_TEST_KEY", raising=False)
        calls = fake_post("answer")
        cfg = ChatEndpointConfig(credential_env="MATEVAL_TEST_KEY")
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(MissingCredentialError):
            chat_complete(bundle, cfg)
        assert calls == []

    def test_retries_then_succeeds(self, monkeypatch, fake_post):
        monkeypatch.setenv("MATEVAL_TEST_KEY", "k")
        calls = fake_post((503, {}, b""), (503, {}, b""), "answer")
        cfg = ChatEndpointConfig(
            credential_env="MATEVAL_TEST_KEY", max_retries=3, backoff_base=0.001
        )
        bundle = build_ner_prompt("ner_material", "text")
        assert chat_complete(bundle, cfg) == "answer"
        assert len(calls) == 3

    @pytest.mark.parametrize("task", ["ner_material", "ner_quantity", "re"])
    def test_sent_messages_are_the_bundle(self, monkeypatch, fake_post, task):
        monkeypatch.setenv("MATEVAL_TEST_KEY", "k")
        calls = fake_post("answer")
        if task == "re":
            bundle = build_re_prompt("text", {"material": ["MgB2"], "tc": ["39 K"]})
        else:
            bundle = build_ner_prompt(task, "text")
        cfg = ChatEndpointConfig(credential_env="MATEVAL_TEST_KEY")
        chat_complete(bundle, cfg)
        assert [payload["messages"] for _, payload, _, _ in calls] == [[
            {"role": "system", "content": bundle.system},
            {"role": "user", "content": bundle.user + "\n\n" + bundle.format_instructions},
        ]]

    @pytest.mark.parametrize("task", ["ner_material", "re"])
    def test_model_is_the_configs(self, monkeypatch, fake_post, task):
        monkeypatch.setenv("MATEVAL_TEST_KEY", "k")
        calls = fake_post("answer")
        if task == "re":
            bundle = build_re_prompt("text", {"material": ["MgB2"], "tc": ["39 K"]})
        else:
            bundle = build_ner_prompt(task, "text")
        cfg = ChatEndpointConfig(credential_env="MATEVAL_TEST_KEY", model="gpt-4")
        chat_complete(bundle, cfg)
        assert [(p["model"], p["temperature"]) for _, p, _, _ in calls] == [("gpt-4", 0.0)]

    def test_a_bundle_is_prompt_text_and_its_task(self):
        bundle = build_ner_prompt("ner_material", "text")
        assert list(bundle._fields) == [
            "system", "user", "format_instructions", "task"]

    def test_retries_exhausted(self, monkeypatch, fake_post):
        monkeypatch.setenv("MATEVAL_TEST_KEY", "k")
        fake_post(ConnectionRefusedError("connection refused"))
        cfg = ChatEndpointConfig(
            credential_env="MATEVAL_TEST_KEY", max_retries=2, backoff_base=0.001
        )
        bundle = build_ner_prompt("ner_material", "text")
        with pytest.raises(EndpointError):
            chat_complete(bundle, cfg)

    def test_config_from_file(self, tmp_path):
        path = tmp_path / "endpoint.cfg"
        path.write_text(
            "# comment\n"
            "base_url=http://localhost:9/v1\n"
            "model=test-model\n"
            "max_retries=5\n"
            "dry_run=true\n"
            "fixture_dir=/tmp/fixtures\n"
        )
        cfg = ChatEndpointConfig.from_file(str(path))
        assert cfg.base_url == "http://localhost:9/v1"
        assert cfg.model == "test-model"
        assert cfg.max_retries == 5
        assert cfg.dry_run is True

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_config_with_crlf_or_cr_endings_reads_as_its_lf_form(self, tmp_path, newline):
        text = "# comment\nmodel = test-model\n\nmax_retries=5\ndry_run=true\n"
        lf, other = tmp_path / "lf.cfg", tmp_path / "other.cfg"
        lf.write_bytes(text.encode("utf-8"))
        other.write_bytes(text.replace("\n", newline).encode("utf-8"))
        cfg = ChatEndpointConfig.from_file(str(lf))
        assert (cfg.model, cfg.max_retries, cfg.dry_run) == ("test-model", 5, True)
        assert ChatEndpointConfig.from_file(str(other)) == cfg

    def test_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "endpoint.cfg"
        path.write_text("api_key=secret\n")
        with pytest.raises(ValueError):
            ChatEndpointConfig.from_file(str(path))

    def test_rate_limiter_enforces_interval_and_cap(self):
        import time
        from concurrent.futures import ThreadPoolExecutor

        from mateval.llm import RateLimiter

        limiter = RateLimiter(max_concurrency=2, min_interval=0.02)
        stamps = []

        def job(_):
            limiter.acquire()
            try:
                stamps.append(time.monotonic())
            finally:
                limiter.release()

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(job, range(6)))
        stamps.sort()
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(gap >= 0.015 for gap in gaps)  # interval honoured (with slack)


class TestParseJsonResponse:
    def test_plain_list(self):
        assert parse_json_response('[{"material": "MgB2"}]', "ner_material") == ["MgB2"]

    def test_code_fence_repair(self):
        raw = '```json\n[{"material": "MgB2"}]\n```'
        assert parse_json_response(raw, "ner_material") == ["MgB2"]

    def test_prose_trimming_repair(self):
        raw = 'Sure, here are the results: [{"material": "MgB2"}] Hope this helps!'
        assert parse_json_response(raw, "ner_material") == ["MgB2"]

    def test_trailing_comma_repair(self):
        raw = '[{"material": "MgB2"},]'
        assert parse_json_response(raw, "ner_material") == ["MgB2"]

    def test_refusal_is_empty_not_error(self):
        assert parse_json_response("I don't know", "ner_material") == []
        assert parse_json_response("None", "re") == []

    def test_unrepairable_raises_with_raw(self):
        with pytest.raises(ResponseParseError) as err:
            parse_json_response("utter nonsense {{{", "ner_material")
        assert err.value.raw == "utter nonsense {{{"

    def test_relation_blocks(self):
        raw = '[{"material": "H2S", "tc": "150 K", "pressure": "150 GPa"}, {"tc": "1 K"}]'
        blocks = parse_json_response(raw, "re")
        assert blocks == [
            {"material": "H2S", "tc": "150 K", "pressure": "150 GPa"},
            {"tc": "1 K"},
        ]

    def test_quantity_value_unit_join(self):
        raw = '[{"value": 355, "unit": "ml"}, {"quantity": "4.2 K"}]'
        assert parse_json_response(raw, "ner_quantity") == ["355 ml", "4.2 K"]

    def test_boolean_value_is_no_quantity(self, capsys):
        assert parse_response('[{"value": true, "unit": "K"}]', "ner_quantity") == []
        assert capsys.readouterr().err == (
            "ignoring unrecognized ner_quantity item: {'value': True, 'unit': 'K'}\n")

    @pytest.mark.parametrize("raw, task, entities, ignored", [
        ('["", "  "]', "ner_material", [], ["''", "'  '"]),
        ('[{"value": "", "unit": "K"}, {"value": ""}]', "ner_quantity", [],
         ["{'value': '', 'unit': 'K'}", "{'value': ''}"]),
        ('[{"value": "39", "unit": "  "}]', "ner_quantity", ["39"], []),
    ], ids=["blank-items", "blank-values", "blank-unit"])
    def test_blank_text_is_no_entity(self, capsys, raw, task, entities, ignored):
        assert parse_response(raw, task) == entities
        assert capsys.readouterr().err == "".join(
            f"ignoring unrecognized {task} item: {item}\n" for item in ignored)

    def test_a_relation_slot_is_text_or_a_number(self):
        raw = ('[{"material": ["MgB2"], "tc": {"v": 39}}, '
               '{"material": "MgB2", "tc": "39 K", "pressure": true}, '
               '{"material": "  ", "tc": 39, "pressure": 1.5}]')
        assert parse_response(raw, "re") == [
            {}, {"material": "MgB2", "tc": "39 K"}, {"tc": "39", "pressure": "1.5"}]

    def test_roundtrip_of_serialized_entities(self):
        entities = ["MgB2", "La 2-x Sr x CuO 4"]
        raw = json.dumps([{"material": m} for m in entities])
        assert parse_json_response(raw, "ner_material") == entities

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.text(min_size=1).filter(lambda s: s.strip()), max_size=8
        )
    )
    def test_roundtrip_identity_property(self, entities):
        raw = json.dumps([{"material": m} for m in entities])
        assert parse_json_response(raw, "ner_material") == entities


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
JSON_WHITESPACE = st.text(alphabet=" \t\n\r", max_size=4)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES, before=JSON_WHITESPACE, after=JSON_WHITESPACE,
       indent=st.none() | st.integers(0, 2))
def test_fence_stripping_keeps_every_json_text_as_it_reads(value, before, after, indent):
    """The bounded repair has no identity pass: its first pass already reads
    every JSON text, whatever JSON whitespace surrounds it, as it is."""
    text = before + json.dumps(value, indent=indent) + after
    assert read_json(_strip_code_fences(text)) == read_json(text)


class TestParsePseudoFormat:
    def test_relations_one_per_line(self):
        raw = "material: mat1, tc: 22K, \nmaterial: mat2, tc: 24K, pressure: 2GPa"
        blocks = parse_pseudo_format(raw, "re")
        assert blocks == [
            {"material": "mat1", "tc": "22K"},
            {"material": "mat2", "tc": "24K", "pressure": "2GPa"},
        ]

    def test_relations_blank_line_blocks(self):
        raw = (
            "material: MgB2,\n tc: 29-31K,\n pressure: ambient pressure:\n"
            "\n"
            "material: MgB3,\n tc: 29-31K,\n pressure: ambient pressure:\n"
        )
        blocks = parse_pseudo_format(raw, "re")
        assert blocks == [
            {"material": "MgB2", "tc": "29-31K", "pressure": "ambient pressure"},
            {"material": "MgB3", "tc": "29-31K", "pressure": "ambient pressure"},
        ]

    @pytest.mark.parametrize("raw, tc", [
        ('material: MgB2, tc: 39 K {"ref": 3}', "39 K"),
        ('material: MgB2, tc: 39 K\t {"ref": {"doi": "x"}, "page": [1]}', "39 K"),
        ('material: MgB2, tc: 39 K {}', "39 K"),
        ('material: MgB2, tc: 39 K {"ref": 3} {"note": 1}', '39 K {"ref": 3}'),
        ('material: MgB2, tc: 39 K {ref 3}', "39 K {ref 3}"),  # not JSON
        ('material: MgB2, tc: 39 K ["ref", 3]', '39 K ["ref", 3]'),  # not an object
        ('material: MgB2, tc: 39 K {"ref": 3} at ambient', '39 K {"ref": 3} at ambient'),
        ('material: MgB2, tc: 39 K{"ref": 3}', "39 K"),
    ])
    def test_trailing_json_object_is_dropped_from_a_slot_value(self, raw, tc):
        assert parse_pseudo_format(raw, "re") == [{"material": "MgB2", "tc": tc}]

    def test_a_slot_value_that_is_only_a_json_object_is_empty(self):
        raw = 'material: MgB2 {"ref": 3}, tc: {"ref": 3}'
        assert parse_pseudo_format(raw, "re") == [{"material": "MgB2"}]

    def test_trailing_json_object_is_kept_in_an_entity(self):
        raw = 'materials:\n - MgB2 {"ref": 3}\n - MgB2 [12]'
        assert parse_pseudo_format(raw, "ner_material") == ['MgB2 {"ref": 3}', "MgB2 [12]"]

    def test_material_value_containing_commas(self):
        raw = "material: Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5, tc: 30 K"
        blocks = parse_pseudo_format(raw, "re")
        assert blocks == [
            {
                "material": "Eu 1-x K x Fe 2 As 2 samples with x = 0.35, 0.45 and 0.5",
                "tc": "30 K",
            }
        ]

    def test_entity_bullets(self):
        raw = "materials:\n - material1\n - material2\n - material3"
        assert parse_pseudo_format(raw, "ner_material") == [
            "material1", "material2", "material3",
        ]

    def test_none_is_empty(self):
        assert parse_pseudo_format("None", "re") == []
        assert parse_pseudo_format("None", "ner_material") == []

    def test_alien_text_raises(self):
        with pytest.raises(ResponseParseError):
            parse_pseudo_format("the weather is pleasant today", "re")
        with pytest.raises(ResponseParseError):
            parse_pseudo_format("no structure here", "ner_material")

    def test_values_are_substrings_of_raw(self):
        raw = "material: mat1, tc: 22K\nmaterial: mat2, tc: 24K, pressure: 2GPa"
        for block in parse_pseudo_format(raw, "re"):
            for value in block.values():
                assert value in raw

    def test_unknown_key_does_not_leak_into_values(self):
        raw = "material: MgB2, note: from figure 2, tc: 39 K"
        assert parse_pseudo_format(raw, "re") == [
            {"material": "MgB2", "tc": "39 K"}
        ]

    def test_substitution_clause_inside_value_survives(self):
        raw = "material: La 3 X 2 (X = Sb, Pb), tc: 4 K"
        assert parse_pseudo_format(raw, "re") == [
            {"material": "La 3 X 2 (X = Sb, Pb)", "tc": "4 K"}
        ]

    def test_auto_detection(self):
        assert parse_response('[{"material": "MgB2"}]', "ner_material") == ["MgB2"]
        assert parse_response("materials:\n - MgB2", "ner_material") == ["MgB2"]


def make_re_doc(doc_id, materials, tcs, relations):
    entities = [EntityMention(m, "material") for m in materials]
    entities += [EntityMention(t, "tc") for t in tcs]
    return Document(id=doc_id, text=f"text of {doc_id}", entities=entities,
                    relations=relations)


def synthetic_corpus(n):
    docs = []
    for i in range(n):
        materials = [f"Mat{i}A", f"Mat{i}B"]
        tcs = [f"{10 + i} K", f"{20 + i} K"]
        relations = [
            RelationGroup(materials[0], tcs[0]),
            RelationGroup(materials[1], tcs[1]),
        ]
        docs.append(make_re_doc(f"doc{i:04d}", materials, tcs, relations))
    return docs


def record_key(record):
    """(document, per-class entity multiset) signature, order-insensitive."""
    user = record.messages[1]["content"]
    lines = sorted(
        tuple(sorted(line.split(": ", 1)[1].split(", ")))
        for line in user.splitlines()
        if line.startswith(("materials:", "tcs:", "pressures:"))
    )
    return (record.source_doc, tuple(lines), record.messages[2]["content"])


def _retried_once(monkeypatch):
    monkeypatch.setenv("MATEVAL_TEST_KEY", "k")
    replies = iter([(503, {"Retry-After": "0.1"}, b""),
                    (200, {}, b'{"choices": [{"message": {"content": "answer"}}]}')])
    monkeypatch.setattr(llm, "post_json", lambda url, payload, timeout, headers: next(replies))
    cfg = ChatEndpointConfig(credential_env="MATEVAL_TEST_KEY", max_retries=1,
                             backoff_base=0.001)
    return chat_complete(build_ner_prompt("ner_material", "text"), cfg)


# (what warns, its result, the bytes it writes to stderr)
WARNINGS = {
    "transient failure": (_retried_once, "answer",
                          "transient endpoint failure (HTTP 503), retrying in 0.1s\n"),
    "unrecognized item": (
        lambda _: parse_json_response('[{"name": "MgB2"}, "Nb3Sn"]', "ner_material"),
        ["Nb3Sn"], "ignoring unrecognized ner_material item: {'name': 'MgB2'}\n"),
    "unknown key": (lambda _: parse_pseudo_format("material: MgB2, foo: bar, tc: 39 K", "re"),
                    [{"material": "MgB2", "tc": "39 K"}],
                    "ignoring unknown key 'foo' in response\n"),
    "unknown header": (
        lambda _: parse_pseudo_format("Quantity:\nmaterials:\n - MgB2\n", "ner_material"),
        ["MgB2"], "ignoring unknown header 'Quantity'\n"),
}


@pytest.mark.parametrize("call, result, warning", WARNINGS.values(), ids=WARNINGS.keys())
def test_each_warning_is_one_line_on_stderr(monkeypatch, capsys, call, result, warning):
    assert call(monkeypatch) == result
    assert capsys.readouterr() == ("", warning)


class TestPrepareFinetune:
    def test_split_arithmetic(self):
        docs = synthetic_corpus(10)
        train, test = prepare_finetune(docs, "re", "base", seed=1, split_ratio=0.7)
        assert len(train) == 7 and len(test) == 3

    def test_partitions_disjoint_and_exhaustive(self):
        docs = synthetic_corpus(20)
        train, test = prepare_finetune(docs, "re", "base", seed=5)
        all_keys = Counter(id(r) for r in train + test)
        assert len(train) + len(test) == 20
        assert all(v == 1 for v in all_keys.values())

    def test_deterministic_under_seed(self):
        docs = synthetic_corpus(12)
        first = prepare_finetune(docs, "re", "document_order", seed=3)
        second = prepare_finetune(docs, "re", "document_order", seed=3)
        assert first == second

    def test_augmented_roughly_doubles(self):
        docs = synthetic_corpus(40)
        base_train, base_test = prepare_finetune(docs, "re", "base", seed=2)
        aug_train, aug_test = prepare_finetune(docs, "re", "augmented", seed=2)
        base_n = len(base_train) + len(base_test)
        aug_n = len(aug_train) + len(aug_test)
        assert base_n == 40
        assert base_n < aug_n <= 2 * base_n

    @pytest.mark.parametrize("seed", range(6))
    def test_augmented_never_repeats_a_rendered_prompt(self, seed):
        # both orderings of "a" and "a, a" render as "materials: a, a, a"
        doc = make_re_doc("commas", ["a", "a, a"], ["1 K"], [RelationGroup("a", "1 K")])
        train, test = prepare_finetune([doc], "re", "augmented", seed=seed, split_ratio=0.5)
        users = [r.messages[1]["content"] for r in train + test]
        assert len(users) == len(set(users)) == 1

    def test_augmented_collapses_single_orderings(self):
        docs = [
            make_re_doc("solo", ["OnlyMat"], ["1 K"], [RelationGroup("OnlyMat", "1 K")])
        ]
        train, test = prepare_finetune(docs, "re", "augmented", seed=0, split_ratio=0.5)
        # one material and one tc admit a single ordering; no extra copy
        assert len(train) + len(test) == 1

    def test_base_and_document_order_same_up_to_list_order(self):
        docs = synthetic_corpus(15)
        base = prepare_finetune(docs, "re", "base", seed=9)
        doco = prepare_finetune(docs, "re", "document_order", seed=9)
        base_keys = Counter(record_key(r) for r in base[0] + base[1])
        doco_keys = Counter(record_key(r) for r in doco[0] + doco[1])
        assert base_keys == doco_keys

    def test_assistant_answers_are_pseudo_not_json(self):
        docs = synthetic_corpus(3)
        train, test = prepare_finetune(docs, "re", "base", seed=1)
        for record in train + test:
            answer = record.messages[2]["content"]
            assert answer.startswith("material: ")
            with pytest.raises(json.JSONDecodeError):
                json.loads(answer)

    def test_ner_records(self):
        docs = load_corpus(str(DATA / "corpus.jsonl"))
        train, test = prepare_finetune(docs, "ner_material", "base", seed=1)
        records = train + test
        assert len(records) == 5
        d1 = next(r for r in records if r.source_doc == "d1")
        assert d1.messages[2]["content"] == "materials:\n - MgB2"
        assert "MgB2 becomes superconducting" in d1.messages[0]["content"]

    def test_ner_ignores_strategy(self):
        docs = load_corpus(str(DATA / "corpus.jsonl"))
        base = prepare_finetune(docs, "ner_material", "base", seed=1)
        aug = prepare_finetune(docs, "ner_material", "augmented", seed=1)
        assert [r.messages for r in base[0]] == [r.messages for r in aug[0]]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            prepare_finetune([], "re", "base")

    @pytest.mark.parametrize("task", ["ner_material", "ner_quantity", "re"])
    @pytest.mark.parametrize("strategy", ["base", "document_order", "augmented"])
    def test_records_carry_the_extraction_prompt(self, task, strategy):
        docs = {d.id: d for d in load_corpus(str(DATA / "corpus.jsonl"))}
        docs.update((d.id, d) for d in synthetic_corpus(4))
        train, test = prepare_finetune(list(docs.values()), task, strategy, seed=7)
        assert train and test
        for record in train + test:
            doc = docs[record.source_doc]
            if task != "re":
                bundles = [build_ner_prompt(task, doc.text)]
            elif strategy == "document_order":
                bundles = [build_re_prompt(doc.text, doc.relation_entities())]
            else:
                # copy 0 is the base ordering, later copies augmented ones
                copies = range(9) if strategy == "augmented" else range(1)
                bundles = [
                    build_re_prompt(doc.text, doc.relation_entities(),
                                    shuffle_seed=derive_subseed(7, doc.id, str(c)))
                    for c in copies
                ]
            system, user, _ = (m["content"] for m in record.messages)
            assert (system, user) in [(b.system, b.user) for b in bundles]

    @pytest.mark.parametrize("task", ["ner_material", "re"])
    def test_whitespace_text_raises(self, task):
        doc = Document(
            id="blank", text="  \n",
            entities=[EntityMention("MgB2", "material"), EntityMention("39 K", "tc")],
        )
        with pytest.raises(EmptyTextError):
            prepare_finetune([doc], task, "base")

    def test_document_split_keeps_augmented_copies_together(self):
        docs = synthetic_corpus(10)
        train, test = prepare_finetune(
            docs, "re", "augmented", seed=4, split_unit="document"
        )
        train_docs = {r.source_doc for r in train}
        test_docs = {r.source_doc for r in test}
        assert not train_docs & test_docs
        assert len(train_docs) == 7 and len(test_docs) == 3

    def test_document_split_deterministic(self):
        docs = synthetic_corpus(9)
        assert prepare_finetune(
            docs, "re", "base", seed=2, split_unit="document"
        ) == prepare_finetune(docs, "re", "base", seed=2, split_unit="document")

    def test_wire_format(self, tmp_path):
        docs = synthetic_corpus(2)
        train, _ = prepare_finetune(docs, "re", "base", seed=1, split_ratio=0.6)
        path = tmp_path / "train.jsonl"
        write_finetune_file(train, str(path))
        lines = path.read_text().strip().splitlines()
        for line in lines:
            payload = json.loads(line)
            assert set(payload) == {"messages"}
            roles = [m["role"] for m in payload["messages"]]
            assert roles == ["system", "user", "assistant"]


class TestPseudoRendering:
    def test_relations_roundtrip(self):
        relations = [
            RelationGroup("mat1", "22K"),
            RelationGroup("mat2", "24K", "2GPa"),
        ]
        rendered = render_pseudo_relations(relations)
        parsed = parse_pseudo_format(rendered, "re")
        assert parsed == [
            {"material": "mat1", "tc": "22K"},
            {"material": "mat2", "tc": "24K", "pressure": "2GPa"},
        ]

    def test_entities_roundtrip(self):
        rendered = render_pseudo_entities("material", ["MgB2", "H2S"])
        assert parse_pseudo_format(rendered, "ner_material") == ["MgB2", "H2S"]

    def test_empty_renders_refusal(self):
        assert render_pseudo_relations([]) == "None"
        assert render_pseudo_entities("material", []) == "None"


class TestParseResponseDecidesTheFormat:
    """JSON as written or fenced, then the pseudo format when it reads an
    item, then the bounded JSON repair."""

    def test_citation_in_a_pseudo_entity_is_not_json(self):
        assert parse_response("materials:\n - MgB2 [12]", "ner_material") == ["MgB2 [12]"]

    def test_json_object_in_a_pseudo_relation_is_not_json(self):
        raw = 'material: MgB2, tc: 39 K {"ref": 3}'
        assert parse_response(raw, "re") == [{"material": "MgB2", "tc": "39 K"}]

    @pytest.mark.parametrize("raw", [
        'Here are the materials:\n["MgB2"]',
        'materials:\n["MgB2"]',  # a header with no bullet reads no item
        '["MgB2",]',
        '```json\n["MgB2"]\n```',
        '[{"material": "MgB2"}]',
    ])
    def test_json_answers(self, raw):
        assert parse_response(raw, "ner_material") == ["MgB2"]

    @pytest.mark.parametrize("raw, task", [
        ("None", "ner_material"), ("I don't know.", "ner_material"), ("materials:", "ner_material"),
        ("None", "re"), ("material: , tc:", "re"),
    ])
    def test_empty_answers(self, raw, task):
        assert parse_response(raw, task) == []

    def test_final_error_is_the_pseudo_parsers(self):
        with pytest.raises(ResponseParseError, match="no pseudo-format structure") as err:
            parse_response("utter nonsense {{{", "ner_material")
        assert err.value.raw == "utter nonsense {{{"
        with pytest.raises(ResponseParseError, match="no relation keys"):
            parse_response("[1, 2", "re")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="MgB2OK xy()[]{}\"0123456789.-"), min_size=1, max_size=4),
           st.booleans())
    def test_rendered_answers_read_as_the_pseudo_parser_reads_them(self, texts, relations):
        texts = [t for t in texts if t.strip()] or ["MgB2 [1]"]
        if relations:
            raw = render_pseudo_relations([RelationGroup(t, t) for t in texts])
            assert parse_response(raw, "re") == parse_pseudo_format(raw, "re")
        else:
            raw = render_pseudo_entities("material", texts)
            assert parse_response(raw, "ner_material") == parse_pseudo_format(raw, "ner_material")
        as_json = json.dumps(texts)
        assert parse_response(as_json, "ner_material") == parse_json_response(
            as_json, "ner_material")


# The split of fine-tune records as it was written before the two split
# units shared one shuffle and one cut: kept as the oracle of
# prepare_finetune, with its own copy of the per-document records.
def _oracle_doc_records(doc, task, strategy, seed):
    def record(bundle, answer):
        messages = ({"role": "system", "content": bundle.system},
                    {"role": "user", "content": bundle.user},
                    {"role": "assistant", "content": answer})
        return FineTuneRecord(messages=messages, strategy=strategy, source_doc=doc.id)

    if task != "re":
        class_ = TASK_CLASSES[task]
        answer = render_pseudo_entities(class_, doc.entity_texts(class_))
        return [record(build_ner_prompt(task, doc.text), answer)]
    entities = doc.relation_entities()
    if not entities:
        return []
    answer = render_pseudo_relations(doc.relations)
    if strategy == "document_order":
        return [record(build_re_prompt(doc.text, entities), answer)]
    copies = [record(build_re_prompt(doc.text, shuffle_entities(
        entities, derive_subseed(seed, doc.id, str(copy)))), answer)
        for copy in range(9 if strategy == "augmented" else 1)]
    extra = [c for c in copies[1:] if c != copies[0]][:1]
    return copies[:1] + extra


def _oracle_prepare_finetune(documents, task, strategy, seed, split_ratio, split_unit):
    if split_unit == "document":
        order = list(range(len(documents)))
        random.Random(derive_subseed(seed, "split")).shuffle(order)
        cut = int(split_ratio * len(documents))
        train, test = [], []
        for side, indexes in ((train, order[:cut]), (test, order[cut:])):
            for i in sorted(indexes):
                side.extend(_oracle_doc_records(documents[i], task, strategy, seed))
        if not train and not test:
            raise EmptyCorpusError("no documents with usable entities")
        return train, test
    records = []
    for doc in documents:
        records.extend(_oracle_doc_records(doc, task, strategy, seed))
    if not records:
        raise EmptyCorpusError("no documents with usable entities")
    order = list(range(len(records)))
    random.Random(derive_subseed(seed, "split")).shuffle(order)
    cut = int(split_ratio * len(records))
    return [records[i] for i in order[:cut]], [records[i] for i in order[cut:]]


# few distinct texts, so shuffled orderings often render alike ("a, a")
_ENTITY_TEXTS = st.sampled_from(["a", "a, a", "MgB2", "H3S", "39 K", "150 GPa", "x"])


@st.composite
def _corpora(draw):
    documents = []
    for i in range(draw(st.integers(1, 7))):
        entities = draw(st.lists(st.builds(EntityMention, _ENTITY_TEXTS,
                                           st.sampled_from(ENTITY_CLASSES)), max_size=6))
        relations = draw(st.lists(st.builds(RelationGroup, _ENTITY_TEXTS, _ENTITY_TEXTS,
                                            st.none() | _ENTITY_TEXTS), max_size=2))
        text = draw(st.sampled_from(["MgB2 at 39 K", "text", " \n"]))
        documents.append(Document(f"d{i}", text, entities, relations))
    return documents


def _outcome(prepare, *args):
    try:
        return prepare(*args)
    except (EmptyCorpusError, EmptyTextError) as exc:
        return type(exc), str(exc)


class TestSplitOracle:
    @settings(max_examples=150, deadline=None)
    @given(_corpora(), st.integers(0, 2**32), st.sampled_from([0.1, 0.5, 0.7, 0.99]))
    def test_records_and_order_equal_the_two_path_split(self, documents, seed, ratio):
        for task in ("ner_material", "ner_quantity", "re"):
            for strategy in ("base", "document_order", "augmented"):
                for unit in ("record", "document"):
                    # records compare by messages, strategy and source_doc
                    args = (documents, task, strategy, seed, ratio, unit)
                    assert _outcome(prepare_finetune, *args) == _outcome(
                        _oracle_prepare_finetune, *args)
