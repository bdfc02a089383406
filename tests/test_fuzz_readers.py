"""Fuzz each file reader through the CLI: a mutated input file must end the
command cleanly, with exit code 0 to 3 and, on failure, exactly one
``tagtopics:`` line on stderr; any other exception fails the test.

Each reader gets a valid file and at most 40 derandomized examples of one
to three edits of it: a field dropped or replaced, a line deleted,
duplicated, swapped or inserted, then at times the bytes cut short or given a stray byte.  No
edit can make a reader allocate much: a header size becomes at most twice
its real value or at least 10**15 (which no allocation can take), a spec's
``n_samples`` at most 10**4 or more than ``MAX_SAMPLES``, and the other
fields hold no number between 2 and 10**15.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TRAINERS, make_corpus
from tagtopics import cli
from tagtopics.corpus import save_corpus
from tagtopics.sampling import MAX_SAMPLES, PlantedSpec, save_spec
from tagtopics.training import TrainConfig

TRIPLES = "# resource\tuser\ttag\tcount\na\tu1\tx\na\tu2\tx\t2\nb\tu1\ty\n\nc\tu3\tz\t5\nc\tu1\tx\n"
LABELS = "# resource\tlabel\nb\tsame\nc\tlink-to\n"
# Field values for any field: no number between 2 and 10**15, so none is a size to allocate.
TOKENS = st.sampled_from([
    "", "0", "1", "2", "-1", "-0.0", "0.5", "1e-320", "nan", "inf", "-inf", "1e999", "x",
    "#", "=", "plsa", "mwa", "itm", "spec", "same", "link-to", "rank", "٣", "1_000",
    "+3", "\x00", "\ufeff", "é", " ", "9223372036854775808", str(10**20)]) | st.text(
    st.characters(blacklist_categories=("Nd", "Cs")), max_size=4)


def sizes(real: int):
    """A header size: at most twice the ``real`` one, or too large to allocate."""
    return st.integers(-1, 2 * real) | st.integers(10**15, 10**30)


def model_rules(header: str) -> dict:
    """The fields of a model header line that are sizes, and their strategies."""
    return {k: sizes(int(field)) for k, field in enumerate(header.split()[1:-1], start=1)}


@st.composite
def mutated(draw, text: str, rules: dict) -> bytes:
    """``text`` with one to three line edits and at times a byte edit.  A field
    edit drops the field or replaces it: ``rules`` maps a line's index in ``text``
    to the strategies of some of its fields, and any other field gets a
    :data:`TOKENS` value."""
    lines = list(enumerate(text.splitlines()))  # (index in text, or None if inserted, line)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["field", "field", "delete", "duplicate", "swap", "insert"])
                    if lines else st.just("insert"))
        i = draw(st.integers(0, len(lines) - (edit != "insert")))
        if edit == "field":
            origin, line = lines[i]
            parts = re.split(r"([\t ]+)", line)
            k = draw(st.integers(0, len(parts) // 2))
            value = draw(st.none() | rules.get(origin, {}).get(k, TOKENS))
            if value is None:  # the field goes, and a separator next to it
                del parts[max(2 * k - 1, 0):max(2 * k + 1, 2)]
            else:
                parts[2 * k] = str(value)
            lines[i] = (origin, "".join(parts))
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "insert":
            words = draw(st.lists(TOKENS, min_size=1, max_size=5))
            lines.insert(i, (None, draw(st.sampled_from(["\t", " "])).join(words)))
    data = "".join(f"{line}\n" for _, line in lines).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"", b"\xff", b"\xc3", b"\r", b"\x00\n"]))
    return data


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid file for each reader, a model and a spec of each kind, the
    corpus the models were trained on, and a path for the mutated file."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = make_corpus(TRIPLES.splitlines())
    save_corpus(corpus, root / "corpus.tsv")
    paths = {"corpus": root / "corpus.tsv", "mutated": root / "mutated", "out": root / "out"}
    for kind, trainer in TRAINERS.items():
        model, _ = trainer(corpus, TrainConfig(model=kind, topics=2, interests=2, max_iters=2))
        paths[kind] = root / f"model.{kind}"
        model.save(paths[kind])
        paths[f"spec.{kind}"] = root / f"spec.{kind}"
        save_spec(PlantedSpec(model=model, n_samples=300, seed=1, n_users=3), paths[f"spec.{kind}"])
    for name, text in (("triples", TRIPLES), ("labels", LABELS)):
        paths[name] = root / name
        paths[name].write_text(text)
    paths["ranking"] = root / "ranking"
    assert cli.main(["rank", str(paths["plsa"]), str(paths["corpus"]), "a",
                     "--output", str(paths["ranking"])]) == 0
    return paths


def exits_cleanly(files, data: bytes, argv) -> None:
    files["mutated"].write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("tagtopics: "), lines


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_triples_reader(files, data):
    mutation = data.draw(mutated(TRIPLES, {}))
    exits_cleanly(files, mutation, ["ingest", files["mutated"], files["out"]])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_model_reader(files, data):
    text = files[data.draw(st.sampled_from(list(TRAINERS)))].read_text()
    rules = {1: model_rules(text.splitlines()[1])}  # line 0 is the format comment
    exits_cleanly(files, data.draw(mutated(text, rules)),
                  ["rank", files["mutated"], files["corpus"], "a"])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spec_reader(files, data):
    text = files[f"spec.{data.draw(st.sampled_from(list(TRAINERS)))}"].read_text()
    lines = text.splitlines()  # the spec comment and header, then the model's
    rules = {1: {1: st.integers(-1, 10**4) | st.integers(MAX_SAMPLES + 1, 10**30),
                 3: sizes(int(lines[1].split()[3]))},
             3: model_rules(lines[3])}
    exits_cleanly(files, data.draw(mutated(text, rules)),
                  ["sample", files["mutated"], files["out"]])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_labels_reader(files, data):
    exits_cleanly(files, data.draw(mutated(LABELS, {})),
                  ["eval", files["ranking"], files["mutated"], "--k", 2, "--n", 1])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ranking_reader(files, data):
    exits_cleanly(files, data.draw(mutated(files["ranking"].read_text(), {})),
                  ["eval", files["mutated"], files["labels"], "--k", 2, "--n", 1])
