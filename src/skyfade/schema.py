"""The JSON boundary (config files and model documents) and the one way a
CSV file is opened for reading.

Both JSON documents are JSON objects.  :func:`read_json` loads one from
a UTF-8 file and :func:`write_json` writes one the way every JSON output
is written: two space indent, sorted keys, a final newline.
:class:`JsonObject` reads typed fields from one object; a missing field,
a value of the wrong JSON type, or a field :meth:`JsonObject.read` does
not know raises :class:`SchemaError` naming the field's full path
(``sim.flight.speed_mps``, ``eval.m_values[0]``, ``tilt_rates[1][2]``).

A number is a JSON number or one of the strings "inf" and "-inf";
:func:`encode_number` writes it that way, and NaN as ``null``;
booleans are not numbers, and an integer takes integral values only
(50.0 passes, 50.7 does not).  Whether a value is in range, finite
included, is checked by the type built from it, not here.  Containers
(objects and lists) of the wrong type are named without their value;
scalars are named with it.

:func:`open_csv` opens a CSV as UTF-8 text, dropping a leading byte-order
mark as :func:`read_json` does; a byte that is not UTF-8 raises
:class:`SchemaError` naming the file, as a JSON file's does.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

from .errors import SchemaError

#: Each kind a scalar field is read as, in the words errors use.
KINDS = {
    "number": "a number",
    "integer": "an integer",
    "string": "a string",
    "path": "a path string",
}


def read_json(path: str | Path, doc: str) -> dict:
    """The JSON object in the UTF-8 file ``path``, a ``doc`` (the kind of
    document, for errors)."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: {doc} root must be a JSON object")
    return value


@contextmanager
def open_csv(path: str | Path):
    """``path`` opened as UTF-8 text for :mod:`csv`; a byte that is not
    UTF-8, wherever the reader meets it, raises :class:`SchemaError`."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise SchemaError(
                f"{path}: not UTF-8 text: byte {byte:#04x} ({exc.reason})"
            ) from exc


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as strict JSON: a bare NaN or Infinity raises
    ``ValueError``, so non-finite numbers go through :func:`encode_number`."""
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def encode_number(x: float):
    """``x`` as a JSON value: a float, "inf"/"-inf", or None for NaN."""
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def decode(value, kind: str, path: str, doc: str = "config"):
    """``value``, the field at ``path`` of a ``doc``, read as a ``kind`` of
    :data:`KINDS`: a float, int, str or :class:`Path`."""
    if kind in ("number", "integer"):
        if isinstance(value, str) and value in ("inf", "-inf"):
            value = float(value)
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok and kind == "integer" and isinstance(value, float):
            ok = value.is_integer()
    else:
        ok = isinstance(value, {"string": str, "path": (str, Path)}[kind])
    if not ok:
        raise SchemaError(
            f"{doc} field '{path}' must be {KINDS[kind]}, got {value!r}", field=path
        )
    convert = {"number": float, "integer": int, "path": Path}.get(kind)
    return convert(value) if convert else value


class JsonObject:
    """Typed reads from ``value``, the JSON object at ``path`` of a ``doc``
    ("config" or "model document"); the empty path is the document root."""

    def __init__(self, value, doc: str = "config", path: str = ""):
        if not isinstance(value, dict):
            where = f" field '{path}'" if path else ""
            raise SchemaError(f"{doc}{where} must be a JSON object", field=path or None)
        self.value, self.doc, self.where = value, doc, path

    def __contains__(self, key: str) -> bool:
        return key in self.value

    def at(self, key: str) -> str:
        """The full path of field ``key``."""
        return f"{self.where}.{key}" if self.where else key

    def _get(self, key: str):
        if key not in self.value:
            raise SchemaError(f"{self.doc} missing field '{self.at(key)}'", field=self.at(key))
        return self.value[key]

    def get(self, key: str, kind: str = "number"):
        """Field ``key`` read as a ``kind`` of :data:`KINDS`."""
        return decode(self._get(key), kind, self.at(key), self.doc)

    def list(self, key: str, kind: str | None = None, length: int | None = None):
        """Field ``key``, a list (of ``length`` entries, if given); with
        ``kind``, a tuple of its entries read as that kind, each named by
        its index."""
        value, path = self._get(key), self.at(key)
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"{self.doc} field '{path}' must be a list", field=path)
        if length is not None and len(value) != length:
            raise SchemaError(
                f"{self.doc} field '{path}' must be a list of {length} entries", field=path
            )
        if kind is None:
            return list(value)
        return tuple(decode(v, kind, f"{path}[{k}]", self.doc) for k, v in enumerate(value))

    def section(self, key: str, default: dict | None = None) -> JsonObject:
        """Field ``key``, a JSON object; ``default``, if given, stands in
        for an absent one."""
        value = default if key not in self and default is not None else self._get(key)
        return JsonObject(value, self.doc, self.at(key))

    def read(self, kinds: dict) -> dict:
        """Each field named in ``kinds`` that is present, read as its kind;
        a kind in a list, ``[kind]`` or ``[kind, length]``, reads a list,
        and a kind of None is read elsewhere.  A field that ``kinds`` does
        not name raises :class:`SchemaError`."""
        for key in self.value:
            if key not in kinds:
                raise SchemaError(
                    f"{self.doc} has unknown field '{self.at(key)}'", field=self.at(key)
                )
        return {
            key: self.list(key, *kind) if isinstance(kind, list) else self.get(key, kind)
            for key, kind in kinds.items()
            if kind is not None and key in self
        }

    def path(self, key: str, base_dir: Path | None) -> Path:
        """Field ``key`` as a path, a relative one taken from ``base_dir``."""
        path = self.get(key, "path")
        return base_dir / path if base_dir is not None and not path.is_absolute() else path
