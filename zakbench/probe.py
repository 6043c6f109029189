"""Setup probe: a fresh interpreter that imports zaktp and warms up one workload.

    python3 zakbench/probe.py WORKLOAD [--trace]

run.py times this process from start to exit; with ``--trace`` it prints
the tracer's counts of the warm-up as JSON on standard output.
"""
import json
import sys

import zaktp  # noqa: F401  first, so that -X importtime charges NumPy and SciPy to zaktp

import workloads

if __name__ == "__main__":
    workload = sys.argv[1]
    traced = "--trace" in sys.argv[2:]
    if workload == "cli_cold":
        import zaktp.cli  # noqa: F401  what a cli_cold job imports
    if traced:
        import tracer

        t = tracer.Tracer()
        t.install()
    workloads.warm_up(workload)
    if traced:
        print("ZAKBENCH_TRACE " + json.dumps(t.snapshot()))
