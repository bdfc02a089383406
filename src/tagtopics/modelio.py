"""Model file loading with dispatch on the header token."""

from __future__ import annotations

from . import _textio
from .errors import DataError
from .itm import ItmModel
from .mwa import MwaModel
from .plsa import PlsaModel

MODEL_TYPES = {cls.kind: cls for cls in (PlsaModel, MwaModel, ItmModel)}


def _read(stream, ranked: bool):
    """The model class that ``stream``'s header names, then ``_textio.read_tables``'
    result for every table, or for the class's ``RANKED`` ones if ``ranked``."""
    header = _textio.next_fields(stream, "model header")
    cls = MODEL_TYPES.get(header[0])
    if cls is None:
        raise DataError(f"unknown model kind {header[0]!r}; expected one of {sorted(MODEL_TYPES)}")
    return cls, *_textio.read_tables(cls, header, stream, cls.RANKED if ranked else None)


def read_model(stream):
    """Read any serialized model from an open text stream."""
    cls, _, seed, tables = _read(stream, ranked=False)
    return cls(**tables, seed=seed)


def load_model(path):
    with _textio.read_text(path) as stream:
        return read_model(stream)


def load_ranked(path):
    """``(class, sizes by DIMS name, tables)`` of model file ``path``, with only the
    tables of its class's ``RANKED`` parsed and validated; the rest are stepped over."""
    with _textio.read_text(path) as stream:
        cls, size, _, tables = _read(stream, ranked=True)
    return cls, size, tables
