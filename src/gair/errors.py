"""Shared error types for file formats and run-level failures, the type
check of config fields, and the atomic file replace."""

import os
from contextlib import contextmanager
from typing import get_type_hints


class FormatError(Exception):
    """Corrupt or incompatible on-disk artifact; carries a byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def require_keys(obj, keys, what: str) -> None:
    """Raise FormatError unless `obj` is a JSON object holding every key in `keys`."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise FormatError(f"{what} lacks {', '.join(missing)}")


def check_number_fields(config) -> None:
    """Raise TypeError unless each `int` field of the dataclass `config`
    holds an int and each `float` field an int or a float. A bool is
    neither, so a JSON true in an artifact cannot pass as 1."""
    for name, kind in get_type_hints(type(config)).items():
        value = getattr(config, name)
        if kind in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, kind))):
            raise TypeError(f"{name} must be {'an integer' if kind is int else 'a number'}, not {value!r}")


@contextmanager
def _replacing(path):
    """Yield `<path>.tmp` to write; rename it over `path` if the block succeeds, else remove it."""
    tmp = os.fspath(path) + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
