"""Model file loading with dispatch on the header token."""

from __future__ import annotations

from . import _textio
from .errors import DataError
from .itm import ItmModel
from .mwa import MwaModel
from .plsa import PlsaModel

MODEL_TYPES = {cls.kind: cls for cls in (PlsaModel, MwaModel, ItmModel)}


def read_model(stream):
    """Read any serialized model from an open text stream."""
    header = _textio.next_fields(stream, "model header")
    cls = MODEL_TYPES.get(header[0])
    if cls is None:
        raise DataError(f"unknown model kind {header[0]!r}; expected one of {sorted(MODEL_TYPES)}")
    return _textio.read_tables(cls, header, stream)


def load_model(path):
    with _textio.read_text(path) as stream:
        return read_model(stream)

