import io
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import ROW_SUM_EDGES
from tagtopics import _textio
from tagtopics._textio import parse_matrix, read_table, write_model
from tagtopics.errors import DataError
from tagtopics.itm import train_itm
from tagtopics.modelio import load_model, read_model
from tagtopics.mwa import train_mwa
from tagtopics.plsa import PlsaModel, train_plsa
from tagtopics.sampling import load_spec
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


def written(write, model) -> str:
    stream = io.StringIO()
    write(model, stream)
    return stream.getvalue()


def assert_writes_as_repr(model):
    """The block-wise writer gives the bytes of the per-value ``repr`` writer."""
    assert written(write_model, model) == written(oracles.write_model, model)


# Every model file under tests/data: the hand-made golden models and the
# trained pins of test_golden_training.py.
MODEL_PINS = [f"{pin}.{kind}" for pin in ("golden", "trained") for kind in ("plsa", "mwa", "itm")]


@pytest.mark.parametrize("pin", MODEL_PINS, ids=lambda pin: pin.removeprefix("golden."))
def test_golden_file_rewrites_byte_for_byte(pin, tmp_path):
    golden = DATA / pin
    model = load_model(golden)
    assert model.kind == golden.suffix[1:]
    model.save(tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == golden.read_bytes()
    assert written(oracles.write_model, model).encode() == golden.read_bytes()


def values_model(values, width: int = 1) -> PlsaModel:
    """A plsa model whose p(t|z) holds ``values`` in rows of ``width``.  The
    writer does not validate, so any float64 values will do."""
    table = np.asarray(values, dtype=np.float64).reshape(-1, width)
    return PlsaModel(resource_probs=np.ones(1), tag_given_topic=table,
                     topic_given_resource=np.ones((1, len(table))))


# Float64 bit patterns, weighted to the edges: either sign; the exponents of
# zero and subnormals, of the least and greatest normals, of 0.5, 1 and 2**52
# and of inf and nan, or any; the zero, one-ulp and full significands, or any.
FLOAT64_BITS = st.builds(
    lambda sign, exponent, significand: sign << 63 | exponent << 52 | significand,
    st.integers(0, 1),
    st.one_of(st.sampled_from([0, 1, 1022, 1023, 1075, 2046, 2047]), st.integers(0, 2047)),
    st.one_of(st.sampled_from([0, 1, 2**52 - 1]), st.integers(0, 2**52 - 1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOAT64_BITS, min_size=4, max_size=40), st.integers(1, 4),
       st.sampled_from([1, 5, 9, _textio.BLOCK_VALUES]))
def test_any_float64_writes_as_repr(bits, width, block_values):
    values = np.array(bits[:len(bits) // width * width], dtype=np.uint64).view(np.float64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_textio, "BLOCK_VALUES", block_values)
        assert_writes_as_repr(values_model(values, width))


def test_powers_of_two_and_their_neighbours_write_as_repr():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    rows = np.stack([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)], axis=1)
    assert_writes_as_repr(values_model(np.concatenate([rows, -rows]), width=3))


@pytest.mark.parametrize("block_values", [1, 5, 9])
def test_every_block_size_writes_as_repr(toy_corpus, block_values, monkeypatch):
    monkeypatch.setattr(_textio, "BLOCK_VALUES", block_values)
    models = [load_model(DATA / pin) for pin in MODEL_PINS]
    models += [*trained_models(toy_corpus), read_model(io.StringIO(blocky_plsa_text())),
               load_spec(DATA / "planted_itm_2x2.spec").model]
    for model in models:
        assert_writes_as_repr(model)


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


@pytest.mark.parametrize("text, message", [
    ("plsa 1 x 2 0\n", r"^plsa header: expected integers, got \['1', 'x', '2', '0'\]$"),
    ("plsa 1 0 2 0\n", r"^p\(r\): dimension must be positive, got \(0,\)$"),
    ("plsa 1 1 2 0\n1.0\n-0.5 1.5\n1.0\n", r"^p\(t\|z\) has negative entries$"),
], ids=["non-integer-size", "zero-size", "negative-entry"])
def test_bad_model_file_rejected(text, message):
    with pytest.raises(DataError, match=message):
        read_model(io.StringIO(text))


def test_table_of_another_ndim_rejected():
    model = PlsaModel(tag_given_topic=np.full((2, 3), 1 / 3),
                      topic_given_resource=np.full((4, 2), 0.5),
                      resource_probs=np.full((1, 4), 0.25))
    with pytest.raises(DataError, match=r"^p\(r\) must be a 1-D table, got 2-D$"):
        model.validate()


@pytest.mark.parametrize("total, ok", [(1 + 0.5 * _textio.ROW_SUM_ATOL, True), *ROW_SUM_EDGES])
def test_row_sums_may_be_off_by_the_tolerance(total, ok):
    model = PlsaModel(tag_given_topic=np.full((1, 2), 0.5), topic_given_resource=np.ones((2, 1)),
                      resource_probs=np.array([0.5, total - 0.5]))
    assert model.resource_probs.sum() == total
    if ok:
        model.validate()
    else:
        with pytest.raises(DataError, match=r"^p\(r\) rows do not sum to 1$"):
            model.validate()


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


# Tokens that numpy's text parser refuses and ``float`` reads, tokens both
# read, and separators that ``str.split`` splits on.
ODD_TOKENS = ["1_0", "1e1_0", "0.2_5",
              "\uff11", "\u0663", "\u0660.\u0665",  # a fullwidth 1, Arabic-Indic 3 and 0.5
              "-0", "1e-400", "+.5", "5.", "1.e1", "4.9e-324", "1e400", "-inf", "Infinity",
              "0.1000000000000000055511151231257827021181583404541015625"]
SEPARATORS = [" ", "\t", "\x0c", " \x0b ", "\u3000", "\x1c"]


@pytest.mark.parametrize("block_values", [1, 5, _textio.BLOCK_VALUES])
def test_table_read_has_the_bits_of_float_on_odd_tokens(block_values, monkeypatch):
    monkeypatch.setattr(_textio, "BLOCK_VALUES", block_values)
    n_cols = 4
    tokens = ODD_TOKENS * 3
    lines = [SEPARATORS[n % len(SEPARATORS)].join(tokens[i:i + n_cols]) + "\n"
             for n, i in enumerate(range(0, len(tokens), n_cols))]
    table = read_table(iter(lines), (len(lines), n_cols), "t")
    assert np.array_equal(table.ravel().view(np.int64), float_bits(tokens))


def digits_from(zero: int) -> dict:
    """A ``str.translate`` table to the decimal digits from code point ``zero`` on."""
    return str.maketrans("0123456789", "".join(map(chr, range(zero, zero + 10))))


RESPELLINGS = [
    lambda tok: re.sub(r"(\d)(\d)", r"\1_\2", tok, count=1),
    lambda tok: tok.translate(digits_from(0xFF10)),  # fullwidth
    lambda tok: tok.translate(digits_from(0x660)),  # Arabic-Indic
    lambda tok: "+" + tok,
    lambda tok: tok,
]


def respelled(text: str) -> str:
    """``text`` with each value after the header spelled another way that
    ``float`` reads to the same number, and odd separators between values."""
    *head, body = text.split("\n", 2)  # the comment and header lines, then the tables
    lines = []
    for n, line in enumerate(body.splitlines()):
        tokens = [RESPELLINGS[(n + k) % len(RESPELLINGS)](tok) for k, tok in enumerate(line.split())]
        lines.append(SEPARATORS[n % len(SEPARATORS)].join(tokens))
    return "\n".join(head + lines) + "\n"


def assert_same_tables(got, want):
    assert type(got) is type(want) and got.seed == want.seed
    for attr, _, _ in want.TABLES:
        assert np.array_equal(getattr(got, attr).view(np.int64), getattr(want, attr).view(np.int64))


@pytest.mark.parametrize("block_values", [1, 7, _textio.BLOCK_VALUES])
@pytest.mark.parametrize("kind", ["plsa", "mwa", "itm"])
def test_odd_spellings_read_as_float_reads_them(kind, block_values, monkeypatch):
    text = (DATA / f"golden.{kind}").read_text()
    want = read_model(io.StringIO(text))
    monkeypatch.setattr(_textio, "BLOCK_VALUES", block_values)
    odd = respelled(text)
    assert odd != text
    assert_same_tables(read_model(io.StringIO(odd)), want)
    for attr, _, _ in want.TABLES:  # and the golden values are float's
        table = getattr(want, attr)
        assert np.array_equal(table.ravel().view(np.int64), float_bits(map(repr, table.ravel().tolist())))


@pytest.mark.parametrize("block_values", [1, 5, _textio.BLOCK_VALUES])
def test_trained_models_read_back_bit_for_bit(toy_corpus, block_values, monkeypatch):
    monkeypatch.setattr(_textio, "BLOCK_VALUES", block_values)
    for model in trained_models(toy_corpus):
        buffer = io.StringIO()
        write_model(model, buffer)
        assert_same_tables(read_model(io.StringIO(buffer.getvalue())), model)


def blocky_plsa_text() -> str:
    """A plsa model file whose p(z|r) table has 20 rows of 3 values."""
    rng = np.random.default_rng(20)
    model = PlsaModel(tag_given_topic=rng.dirichlet(np.ones(4), size=3),
                      topic_given_resource=rng.dirichlet(np.ones(3), size=20),
                      resource_probs=rng.dirichlet(np.ones(20)), seed=5)
    buffer = io.StringIO()
    write_model(model, buffer)
    return buffer.getvalue()


# With 9 values per block, p(z|r) is read in blocks of 3 rows: its first row,
# the last row of block 1, the first row of block 2, and a row past block 3.
BLOCK_EDGE_ROWS = [0, 2, 3, 10]


def p_z_r_line(row):
    """Line index of p(z|r) row ``row``: after the comment, the header, p(r)
    and the 3 rows of p(t|z)."""
    return 6 + row


@pytest.mark.parametrize("row", BLOCK_EDGE_ROWS)
@pytest.mark.parametrize("bad, message", [
    ("0.5 0.5", "p(z|r) row {row}: expected 3 values, got 2"),
    ("0.5 0.25 0.25 0.0", "p(z|r) row {row}: expected 3 values, got 4"),
    ("0.5 oops 0.5", "p(z|r) row {row}: non-numeric value"),
    ("0.5 0x1 0.5", "p(z|r) row {row}: non-numeric value"),
    (None, "unexpected end of file while reading p(z|r) row {row}"),
])
def test_errors_name_the_table_row(bad, message, row, monkeypatch):
    monkeypatch.setattr(_textio, "BLOCK_VALUES", 9)
    lines = blocky_plsa_text().splitlines(keepends=True)
    at = p_z_r_line(row)
    lines[at:] = [] if bad is None else [bad + "\n", *lines[at + 1:]]
    if row % 3:  # an odd token above the bad row, in the same block
        lines[at - 1] = lines[at - 1].replace("0.", "0.0_", 1)
    with pytest.raises(DataError) as info:
        read_model(io.StringIO("".join(lines)))
    assert str(info.value) == message.format(row=row)


def rank_size_plsa(n_resources: int = 2500) -> PlsaModel:
    """A plsa model of the benchmark's rank size, R=2500 (or ``n_resources``), T=1500, K=40."""
    rng = np.random.default_rng(2500)
    return PlsaModel(tag_given_topic=rng.dirichlet(np.full(1500, 0.05), size=40),
                     topic_given_resource=rng.dirichlet(np.full(40, 0.1), size=n_resources),
                     resource_probs=rng.dirichlet(np.ones(n_resources)), seed=1)


def traced_peak(fn):
    """``fn()`` and the tracemalloc peak of the memory it allocated."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak


# tracemalloc peak of load_model on rank_size_plsa() under the row-by-row
# read that the block read replaced (Python 3.11, numpy 2.4), measured once:
# a fixed bound, never to be raised.
ROW_READ_PEAK_BYTES = 2_490_456


def test_load_model_peak_memory(tmp_path):
    model = rank_size_plsa()
    path = tmp_path / "model.plsa"
    model.save(path)
    again, peak = traced_peak(lambda: load_model(path))
    assert_same_tables(again, model)
    assert peak <= ROW_READ_PEAK_BYTES


# tracemalloc peak of saving rank_size_plsa() with the block-wise writer
# (Python 3.11, numpy 2.4), measured once: 3,541,769 bytes on the first save
# of a process, which builds the kernel's tables, rounded up to 3.6 MB.  A
# fixed bound, never to be raised.
BLOCK_WRITE_PEAK_BYTES = 3_600_000


def test_save_peak_memory(tmp_path):
    """The writer holds a block at a time: 4 times the rows peak within 10%."""
    path = tmp_path / "model.plsa"
    model, larger = rank_size_plsa(), rank_size_plsa(4 * 2500)
    _, peak = traced_peak(lambda: model.save(path))
    assert peak <= BLOCK_WRITE_PEAK_BYTES
    _, larger_peak = traced_peak(lambda: larger.save(path))
    assert larger_peak <= 1.1 * peak
