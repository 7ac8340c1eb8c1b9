"""Staged writes: an output appears at its path only once written in full."""

from __future__ import annotations

import contextlib
import os
from typing import Iterator


@contextlib.contextmanager
def staged(*paths: str) -> Iterator[list[str]]:
    """Yield a temporary path beside each of ``paths`` to write instead.

    When the block ends normally, each temporary file is renamed onto its
    path, in order.  When it raises, every temporary file is removed and
    no path is touched, so a failure mid-write leaves nothing behind.
    """
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield temps
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    for temp, path in zip(temps, paths):
        os.replace(temp, path)
