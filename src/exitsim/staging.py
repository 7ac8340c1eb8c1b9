"""The file boundary: staged writes, the one JSON reader, writer and
format check, and the errors of a checkpoint and of a training run, which
``cli`` maps to exit codes without loading the toy cascade."""

from __future__ import annotations

import contextlib
import errno
import json
import os
from typing import Callable, Iterator


class TrainingError(RuntimeError):
    """Training aborted: bad state, a non-finite loss, or a non-finite
    parameter to save."""


class CheckpointError(ValueError):
    """Model checkpoint file is malformed or has the wrong version."""


@contextlib.contextmanager
def staged(*paths: str) -> Iterator[list[str]]:
    """Yield a temporary path beside each of ``paths`` to write instead.

    A path that names a directory raises IsADirectoryError before the
    block runs.  When the block ends normally, each temporary file is
    renamed onto its path, in order.  When the block or a rename raises,
    every temporary file not yet renamed is removed: a failure leaves no
    temporary file, and a path only ever receives a file written in full.
    The one staging layer: ``write_traces`` and ``save_cascade`` write the
    path they are given, and ``cli._write_outputs`` (or a library caller
    that wants the guarantee) hands them a temporary path from this block.
    """
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    renamed = 0
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            renamed += 1
    except BaseException:
        for temp in temps[renamed:]:
            if os.path.exists(temp):
                os.remove(temp)
        raise


def read_json(path: str, error: Callable[[str], Exception]) -> object:
    """The JSON value of the UTF-8 file at ``path``.

    Bytes that are not UTF-8, text that is not JSON, an integer longer
    than Python parses and nesting too deep to parse all raise
    ``error("<path>: not valid JSON: ...")``; an unopenable file raises
    its OSError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON: {exc}") from exc


def write_json(
    path: str,
    value: object,
    error: Callable[[str], Exception],
    indent: int | None = None,
) -> None:
    """Write ``value`` to ``path`` as strict JSON: sorted keys, ASCII and a
    final newline.  A value JSON cannot hold exactly (NaN or an infinity)
    raises ``error("not finite: ...")`` before the file opens."""
    try:
        text = json.dumps(value, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise error(f"not finite: {exc}") from None
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def check_format(
    document: object, name: str, version: int, error: Callable[[str], Exception]
) -> None:
    """Raise ``error(message)`` unless ``document`` is a JSON object whose
    ``format`` is ``name`` and whose ``version`` is the JSON integer
    ``version``.  A boolean or a float version is refused, though Python
    compares ``True`` and ``1.0`` equal to ``1``."""
    if not isinstance(document, dict):
        raise error(
            f"{name} document must be a JSON object, got {type(document).__name__}"
        )
    if document.get("format") != name:
        raise error(f"format {document.get('format')!r} is not {name!r}")
    found = document.get("version")
    if type(found) is not int or found != version:
        raise error(
            f"{name} version {found!r} unsupported "
            f"(this reader handles the JSON integer {version})"
        )
