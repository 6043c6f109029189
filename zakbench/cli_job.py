"""One cli_cold job: a zaktp subcommand in a fresh interpreter.

    python3 zakbench/cli_job.py [--trace] SUBCOMMAND ARGS...

Runs ``zaktp.cli.main`` with the given arguments and exits with its code.
With ``--trace`` the tracer wraps every layer after the import, and its
counts and spans go to standard error as one line starting
``ZAKBENCH_TRACE``.
"""
import sys

import zaktp.cli  # first, so that -X importtime charges NumPy and SciPy to zaktp

if __name__ == "__main__":
    traced = sys.argv[1:2] == ["--trace"]
    args = sys.argv[2:] if traced else sys.argv[1:]
    if traced:
        import json

        import tracer

        t = tracer.Tracer()
        t.keep_spans = True
        t.install()
    sys.argv = ["zaktp"] + args
    try:
        zaktp.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code
    if traced:
        snap = t.snapshot()
        snap["spans"] = t.spans
        sys.stderr.write("ZAKBENCH_TRACE " + json.dumps(snap) + "\n")
    sys.exit(code)
