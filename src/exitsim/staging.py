"""Staged writes: an output appears at its path only once written in full."""

from __future__ import annotations

import contextlib
import errno
import os
from typing import Iterator


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
