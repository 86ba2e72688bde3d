"""``python3 -m lcl.cli`` with the span recorder installed.

Usage: traced_cli.py SPANS_JSON CLI_ARGS...

Times its own ``import lcl.cli``, rebinds lcl's public functions, runs
the CLI, then writes the spans and the import time to SPANS_JSON. The
traced cold_classify run starts this in place of ``python3 -m lcl.cli``.
"""

import sys
import time

import tracing


def main() -> int:
    start = time.perf_counter()
    import lcl.cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    code = lcl.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1], import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
