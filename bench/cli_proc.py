"""Run the gtta command line in this process, as the ``gtta`` entry point does.

Usage: cli_proc.py [--trace FILE] -- GTTA_ARGS...

With ``--trace`` every layer call site is wrapped (see ``spans.install``) and
the spans, the import time of ``gtta.cli`` and the exit code are written to
FILE when the command ends. Without it nothing but the command runs, so the
untraced wall time is that of the plain entry point.
"""

from __future__ import annotations

import sys
import time


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    start = time.perf_counter()
    import gtta.cli
    import_s = time.perf_counter() - start
    if trace_path is None:
        return gtta.cli.main(argv)

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    code = gtta.cli.main(argv)
    tracer.dump(trace_path, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
