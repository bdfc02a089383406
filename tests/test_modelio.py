import io
from pathlib import Path

import numpy as np
import pytest

from tagtopics._textio import parse_matrix, write_model
from tagtopics.errors import DataError
from tagtopics.itm import train_itm
from tagtopics.modelio import load_model, read_model
from tagtopics.mwa import train_mwa
from tagtopics.plsa import PlsaModel, train_plsa
from tagtopics.training import TrainConfig


DATA = Path(__file__).parent / "data"


def trained_models(corpus):
    plsa, _ = train_plsa(corpus, TrainConfig(model="plsa", topics=2, seed=1, max_iters=4))
    mwa, _ = train_mwa(corpus, TrainConfig(model="mwa", topics=2, seed=1, max_iters=4))
    itm, _ = train_itm(corpus, TrainConfig(model="itm", topics=2, interests=2,
                                           seed=1, max_iters=4))
    return plsa, mwa, itm


def test_read_model_dispatches_on_header(toy_corpus):
    for model in trained_models(toy_corpus):
        buffer = io.StringIO()
        write_model(model, buffer)
        buffer.seek(0)
        again = read_model(buffer)
        assert type(again) is type(model)
        assert again.kind == model.kind


def test_save_and_load_through_files(toy_corpus, tmp_path):
    for model in trained_models(toy_corpus):
        path = tmp_path / f"model.{model.kind}"
        model.save(path)
        again = load_model(path)
        assert type(again) is type(model)
        # exact float round trip through the text format
        if model.kind == "plsa":
            assert np.array_equal(model.tag_given_topic, again.tag_given_topic)
        elif model.kind == "mwa":
            assert np.array_equal(model.topic_probs, again.topic_probs)
        else:
            assert np.array_equal(model.tag_given_interest_topic,
                                  again.tag_given_interest_topic)


def test_unknown_kind_rejected():
    with pytest.raises(DataError, match="unknown model kind"):
        read_model(io.StringIO("lda 2 3 4 5\n"))


def test_truncated_file_rejected(toy_corpus):
    model, _ = train_plsa(toy_corpus, TrainConfig(model="plsa", topics=2, seed=1, max_iters=2))
    buffer = io.StringIO()
    write_model(model, buffer)
    lines = buffer.getvalue().splitlines()[:-1]
    with pytest.raises(DataError, match="unexpected end of file"):
        read_model(io.StringIO("\n".join(lines)))


def test_wrong_row_length_rejected():
    text = "plsa 1 1 2 0\n1.0\n0.5 0.5 0.5\n1.0\n"
    with pytest.raises(DataError, match="expected 2 values"):
        read_model(io.StringIO(text))


def test_non_numeric_value_rejected():
    text = "plsa 1 1 2 0\n1.0\n0.5 oops\n1.0\n"
    with pytest.raises(DataError, match="non-numeric"):
        read_model(io.StringIO(text))


def float_bits(tokens) -> np.ndarray:
    """Each token through Python's ``float``, the reference parse, as int64 bits."""
    return np.array([float(tok) for tok in tokens]).view(np.int64)


def test_row_parse_has_the_bits_of_float_on_odd_tokens():
    tokens = ["1_0", "-0", "1e-400", "+.5", "5.", "\uff11"]  # the last is a fullwidth 1
    rows = parse_matrix(io.StringIO(" ".join(tokens) + "\n"), 1, len(tokens), "t")
    assert np.array_equal(rows[0].view(np.int64), float_bits(tokens))


def test_row_parse_has_the_bits_of_float_on_a_trained_model(toy_corpus):
    for model in trained_models(toy_corpus):
        for attr, _, _ in model.TABLES:
            table = getattr(model, attr)
            tokens = list(map(repr, table.ravel().tolist()))
            rows = parse_matrix(io.StringIO(" ".join(tokens) + "\n"), 1, len(tokens), attr)
            assert np.array_equal(rows[0].view(np.int64), float_bits(tokens))
            assert np.array_equal(rows[0], table.ravel())


@pytest.mark.parametrize("token", ["0x1", "abc"])
def test_row_parse_rejects_what_float_rejects(token):
    with pytest.raises(DataError, match="p row 0: non-numeric value"):
        parse_matrix(io.StringIO(f"0.5 {token}\n"), 1, 2, "p")


def test_denormalized_table_rejected():
    text = "plsa 1 1 2 0\n1.0\n0.9 0.3\n1.0\n"
    with pytest.raises(DataError, match="sum to 1"):
        read_model(io.StringIO(text))


def test_bad_header_arity_rejected():
    with pytest.raises(DataError, match="bad plsa header"):
        read_model(io.StringIO("plsa 1 1\n"))


@pytest.mark.parametrize("kind", ["plsa", "mwa", "itm"])
def test_golden_file_rewrites_byte_for_byte(kind, tmp_path):
    golden = DATA / f"golden.{kind}"
    model = load_model(golden)
    assert model.kind == kind
    model.save(tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("kind", ["plsa", "mwa", "itm"])
def test_data_after_the_last_table_rejected(kind, tmp_path):
    path = tmp_path / f"model.{kind}"
    text = (DATA / f"golden.{kind}").read_text() + "\n# blank lines and comments may follow\n"
    path.write_text(text)
    assert load_model(path).kind == kind
    path.write_text(text + "0.5 0.5\n")
    with pytest.raises(DataError, match=f"^{kind} model: data after the last table$"):
        load_model(path)


@pytest.mark.parametrize("text", [
    "plsa 1 2 2 0\nnan nan\n0.5 0.5\n1.0\n1.0\n",
    "mwa 1 1 1 1 0\nnan\n1.0\n1.0\n1.0\n",
    "itm 1 1 1 1 1 0\nnan\n1.0\n1.0\n1.0\n1.0\n",
], ids=["plsa", "mwa", "itm"])
def test_non_finite_table_rejected(text):
    with pytest.raises(DataError, match="non-finite"):
        read_model(io.StringIO(text))


def test_table_sizes_must_agree():
    model = PlsaModel(tag_given_topic=np.full((2, 3), 1 / 3),
                      topic_given_resource=np.full((4, 3), 1 / 3),
                      resource_probs=np.full(4, 0.25))
    with pytest.raises(DataError, match="n_topics"):
        model.validate()


HAND_MODELS = ["hand_plsa_model", "hand_mwa_model", "hand_itm_model"]


@pytest.mark.parametrize("fixture", HAND_MODELS)
def test_sizes_match_every_table_axis(fixture, request):
    model = request.getfixturevalue(fixture)
    for dim in model.DIMS:
        axes = [getattr(model, attr).shape[dims.index(dim)]
                for attr, _, dims in model.TABLES if dim in dims]
        assert axes and all(n == getattr(model, dim) for n in axes), dim


@pytest.mark.parametrize("fixture", HAND_MODELS)
def test_constructor_takes_exactly_the_tables(fixture, request):
    model = request.getfixturevalue(fixture)
    tables = {attr: getattr(model, attr) for attr, _, _ in model.TABLES}
    again = type(model)(**tables, seed=4)
    assert again.seed == 4 and all(again.__dict__[attr] is tables[attr] for attr in tables)
    missing = dict(tables)
    del missing[model.TABLES[-1][0]]
    for kwargs in (missing, {**tables, "topic_table": tables[model.TABLES[0][0]]}):
        with pytest.raises(TypeError, match=model.TABLES[0][0]):
            type(model)(**kwargs)
    with pytest.raises(TypeError):
        type(model)(*tables.values())


def test_plsa_has_no_user_or_interest_size(hand_plsa_model):
    assert not hasattr(hand_plsa_model, "n_users")
    assert not hasattr(hand_plsa_model, "n_interests")
