"""The file boundary: staged writes and the one JSON reader."""

from __future__ import annotations

import contextlib
import errno
import json
import os
from typing import Callable, Iterator


@contextlib.contextmanager
def staged(*paths: str) -> Iterator[list[str]]:
    """Yield a temporary path beside each of ``paths`` to write instead.

    A path that names a directory raises IsADirectoryError before the
    block runs.  When the block ends normally, each temporary file is
    renamed onto its path, in order.  When the block or a rename raises,
    every temporary file not yet renamed is removed: a failure leaves no
    temporary file, and a path only ever receives a file written in full.
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
