"""Golden report digests: the SHA-256 of every report on ``tests/data``.

Each (command, matcher set) pair runs ``extract --dry-run`` on the bundled
fixtures, evaluates the predictions and renders the stored JSON report as
markdown and CSV through ``report --input``. A digest pins the bytes of each
of the three, so a refactor that claims byte-identical reports is checked on
every interpreter the suite runs on. The semantic matcher scores through the
``conftest`` similarity stub. A digest that changes on purpose is edited here
and the reason given in ``CHANGES.md``.

The seeded prompt commands are pinned the same way: the fine-tune files
``prepare-finetune`` writes and the prompts and predictions of a shuffled
``extract --dry-run``. Their shuffles draw on SHA-256 sub-seeds from the
interpreter's builtin hash module, whose name differs by version, so each
interpreter checks its own path against ``hashlib``'s digests.
"""

import hashlib
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mateval import llm
from mateval.cli import main
from mateval.prompts import derive_subseed

DATA = Path(__file__).parent / "data"

# (command, matchers) -> SHA-256 of the (json, markdown, csv) report
GOLDEN = {
    ("eval-ner", "strict"): (
        "150ccdb894b287bf07e185534293ee59f550aa940be70b3b1c6494731e15b3d5",
        "900074fa1ccfbe200f2cda7760e42cf57af0f1ebd4c51cf5dd8553de94f91544",
        "2f25924dce302c80929fab60455a4df2cd1895887151124e18fcd77f9e43cde9",
    ),
    ("eval-ner", "soft"): (
        "5de586060ab1e59c749d83ecf2c24fa4ee7d1a5a8276d0e2ca934eedca6b6c4b",
        "c2626a38ec7d71383777a8b804afb7092b6edf6f2cf359200b5636fef3f3e549",
        "bbb7b51bb76b12fee6750a38259da43a1e80c3eb81ff975924d4c515f1b7e1ca",
    ),
    ("eval-ner", "formula"): (
        "8131df4eb977f943375fa10a6bacd424adf6b6c965a64b86f5bdef002f35eab4",
        "a2a7bc1a1728676253e521942089c6f9b043f4d69be1c95a2319d80450fba80d",
        "ff71f6f64e16c66c2a33d21ee007e4813de07ec983df9ceaeacb8ee390a6d78c",
    ),
    ("eval-ner", "strict,soft,formula"): (
        "d0e1bcd3e5cc9aadc3999df8d70f004e3060e484befac9fffa4592b16f9bbd3f",
        "46bfe986573efaa1e8e36a47621d3ef18466279e5fe89c7f47fc5bc2ea362042",
        "5e94d898cbb5fe9693c3f5dae1a18824c35bb2229b859008bc50739e2f0ad58e",
    ),
    ("eval-ner", "semantic"): (
        "3547955ec721eeda2878629d99dd0f3c60d0248c844230404afab00a4eb5f882",
        "2c8a0cfe78a2bddf6038b88bc3d3f32f02fd92c3297479afc265e1fff91cef1f",
        "8e65d9f57e8e482f6924e88c9a5da0843f96f18856f356e4d03740be2b82bce8",
    ),
    ("eval-re", "strict"): (
        "19bace0e5c64dc5541586d46c1f220fa3e071a5159c5b5582f4932c56189b554",
        "1204c6f39193c87070fd2defca2c5977440d33fbfb3f125387503940677a844f",
        "88228f880f3f7b8e5610a817bed3ef088bc64a1f8d920d370a66bf8627e9237e",
    ),
    ("eval-re", "soft"): (
        "60c28033aa96d4f26228707eb3adfbed2add8c10bf87d90b440dec7c011a8d03",
        "4e9d49b73f1ee1e98708cc4382232bc8a58d9c57afb04694bb0d4a1a96062bcd",
        "56a88e9b6478f123dbf48691630f9408ccf40f3b97dbabfa57428b29e2617cef",
    ),
    ("eval-re", "formula"): (
        "c42b886afe1644d4cfeb172c95d2dc62a4bac84e0f447897f08d4fe93158412b",
        "1ae1fb7c70ca5aa08cc95d3ace25381a654ed010bcfd4070dc004091ea33d71b",
        "aaf5f751c0c86869555151d6e4b47284f32e92eb7d7e572b121eaf2fd9596e8b",
    ),
    ("eval-re", "strict,soft,formula"): (
        "0725b133065a12a59dc6b19c1f0841151c8258e473e8cd17050045bc7e5c9a65",
        "5554fe612cb67754b2deadfdd83ca5487a7f561b032cd9f425c3a7a085c42dd3",
        "197af6cff266f542bf9bae0c774434e63dba1c49cb25efdbfd0e419b7ae56bef",
    ),
    ("eval-re", "semantic"): (
        "b6672838b111cfb85ff03b307f3976a4ae231c2647041b90638cb932a0ad8d5f",
        "efa5d00aa945a603e3d9ef4062cf426ee24b3902a5d0c145ff78728c6671e7dc",
        "438a86b8d01f0c41c1712aca94531c270448dabd1e7f9e252296113b9de2ee3b",
    ),
}

# strategy -> SHA-256 of the (train, test) files of prepare-finetune --task re --seed 9137
GOLDEN_FINETUNE = {
    "base": (
        "a4a9555b8146e464dc957bbe170f3c88184b837b9284353503b7fb8ae79a527c",
        "8b1afab65fd80592fa9872ab08ceb3866680fade3118557426e0ba9f293ada82",
    ),
    "augmented": (
        "682d723e2a5c0995044f8d04387d76a2e88e618a06866e232365b7d9a2a01cc9",
        "404013d10a386d9a1dddfa320ba896dd5a15d5baff4a83b30d72ba00c235c930",
    ),
}
# SHA-256 of the (user messages sent, predictions written) of
# extract --task re --shuffle shuffled --seed 9137 --dry-run
GOLDEN_SHUFFLED_EXTRACT = (
    "e56f611d85af0eaa52305af5db98cc12eb8877f937292fa08c749bf29421e3ae",
    "f888b5620d1ffd9ebeef383ab72896bed6e1dab92fa2b224a301918efda1e0b7",
)

# extract task and run count of each command's predictions
PREDICTIONS = {"eval-ner": ("ner_material", 3), "eval-re": ("re", 1)}


def _run(argv, capsys) -> str:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


def _predictions(command, tmp_path, capsys) -> Path:
    task, runs = PREDICTIONS[command]
    path = tmp_path / f"{task}.jsonl"
    _run(["extract", "--corpus", DATA / "corpus.jsonl", "--task", task, "--runs", runs,
          "--dry-run", "--fixtures", DATA / "fixtures", "--output", path], capsys)
    return path


def _digests(command, matchers, tmp_path, capsys, *extra) -> tuple[str, str, str]:
    stored = tmp_path / "report.json"
    rendered = [_run([command, "--corpus", DATA / "corpus.jsonl", "--predictions",
                      _predictions(command, tmp_path, capsys), "--matchers", matchers,
                      "--output", stored, *extra], capsys)]
    assert stored.read_text(encoding="utf-8") == rendered[0]
    for format in ("markdown", "csv"):
        rendered.append(_run(["report", "--input", stored, "--format", format], capsys))
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in rendered)


@pytest.mark.parametrize("command, matchers", [
    (command, matchers) for command in PREDICTIONS
    for matchers in ("strict", "soft", "formula", "strict,soft,formula")])
def test_report_bytes_are_pinned(tmp_path, capsys, command, matchers):
    assert _digests(command, matchers, tmp_path, capsys) == GOLDEN[command, matchers]


@pytest.mark.parametrize("command", PREDICTIONS)
def test_semantic_report_bytes_are_pinned(tmp_path, capsys, semantic_endpoint, command):
    digests = _digests(command, "semantic", tmp_path, capsys,
                       "--semantic-endpoint", semantic_endpoint)
    assert digests == GOLDEN[command, "semantic"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("strategy", GOLDEN_FINETUNE)
def test_finetune_file_bytes_are_pinned(tmp_path, capsys, strategy):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    _run(["prepare-finetune", "--corpus", DATA / "corpus.jsonl", "--task", "re", "--strategy",
          strategy, "--seed", 9137, "--train-output", train, "--test-output", test], capsys)
    assert (_sha256(train.read_bytes()), _sha256(test.read_bytes())) == GOLDEN_FINETUNE[strategy]


def test_shuffled_extraction_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # the predictions are the canned replies; the shuffled lists are in the prompts
    sent, chat_complete = [], llm.chat_complete

    def recording(bundle, cfg, **kwargs):
        sent.append(bundle.user_message())
        return chat_complete(bundle, cfg, **kwargs)

    monkeypatch.setattr(llm, "chat_complete", recording)
    out = _run(["extract", "--corpus", DATA / "corpus.jsonl", "--task", "re", "--shuffle",
                "shuffled", "--seed", 9137, "--dry-run", "--fixtures", DATA / "fixtures"], capsys)
    assert (_sha256("".join(sent).encode()), _sha256(out.encode())) == GOLDEN_SHUFFLED_EXTRACT


@given(st.integers(), st.lists(st.text(st.characters(blacklist_categories=("Cs",)))))
@example(9137, ["dépôt", "文書", "run1"])
def test_a_subseed_is_the_hashlib_sha256_of_its_key(seed, parts):
    key = ":".join([str(seed), *parts]).encode("utf-8")
    assert derive_subseed(seed, *parts) == int(hashlib.sha256(key).hexdigest()[:16], 16)
