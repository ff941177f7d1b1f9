"""One benchmark repetition: run ``scanplan.cli.main`` in this fresh process.

Usage: child.py TIMING_JSON SPANS_JSON|- CLI_ARG...

Writes the ``time.perf_counter`` readings (CLOCK_MONOTONIC, shared with the
parent process on Linux) taken after ``import scanplan.cli`` and around
``main``, then exits with main's code. With a spans path the layer functions
are traced (see tracer.py) and the spans are written there at the end.
"""

import json
import sys
import time


def main() -> int:
    timing_path, spans_path, *argv = sys.argv[1:]
    import scanplan.cli as cli
    import_done = time.perf_counter()

    tracer = None
    if spans_path != "-":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    main_start = time.perf_counter()
    rc = None
    try:
        rc = cli.main(argv)
    finally:
        main_end = time.perf_counter()
        if tracer is not None:
            tracer.dump(spans_path)
        with open(timing_path, "w", encoding="ascii") as fh:
            json.dump({"import_done": import_done, "main_start": main_start,
                       "main_end": main_end, "module": cli.__file__}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
