"""One benchmark operation, run in a fresh process by ``bench/run.py``.

Usage: ``python3 bench/child.py SPEC_JSON`` with ``src`` on PYTHONPATH
and the operation's output directory as the working directory.  SPEC_JSON
holds ``commands`` (a list of exitsim argv lists, run in order through
``exitsim.cli.main``), ``trace`` (install ``tracer.Tracer`` first) and
``spans`` (where a traced run writes its spans, or null).

The last stdout line is a JSON object: ``ready`` (the CLOCK_MONOTONIC
reading once exitsim is imported and the inputs are ready), ``wall_s``
(the CLI calls), ``codes`` (their exit codes), ``cpu_s`` and
``peak_rss_mb`` (the whole process, BLAS threads included) and, when
traced, ``layers``.  The CLI's own stdout is kept out of that stream.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _run(argv: list[str], main) -> int | str:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the flags
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return "exception"


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    from exitsim.cli import main as cli_main

    if tracer is not None:
        tracer.install()
    ready = time.monotonic()

    codes = []
    wall_s = 0.0
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in spec["commands"]:
            span = tracer.open_span(f"cli.{argv[0]}") if tracer else None
            start = time.perf_counter()
            codes.append(_run(argv, cli_main))
            wall_s += time.perf_counter() - start
            if tracer is not None:
                tracer.close_span(span)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready": ready,
        "wall_s": wall_s,
        "codes": codes,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        tracer.write_spans(spec["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
