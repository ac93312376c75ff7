"""Run ``python -m repro ARGS`` with the benchmark's hooks installed.

Usage: ``python child.py RECORD MODE -- ARGS...``

The launcher notes the CLOCK_MONOTONIC time at which the CLI finished
parsing its arguments (the end of set-up: interpreter start, imports,
argument parsing).  ``MODE`` is ``0`` for a plain run, ``1`` to wrap
every layer entry point as well (:mod:`layers`), or ``setup`` to exit
as soon as the arguments are parsed.  At exit it writes ``RECORD``, a
JSON object the benchmark reads once it has reaped the process.
Untraced, the only hook is one wrapper around
``ArgumentParser.parse_args``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import resource
import runpy
import sys
import time


def main() -> None:
    record_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("0", "1", "setup"):
        raise SystemExit("usage: child.py RECORD 0|1|setup -- ARGS...")
    record: dict = {}
    tracer = None
    if mode == "1":
        import layers

        tracer = layers.Tracer(os.environ.get(layers.SLOW_LAYER_ENV) or None)
        layers.install(tracer)
    parent_pid = os.getpid()

    def write_record() -> None:
        if os.getpid() != parent_pid:  # a forked worker exiting
            return
        if tracer is not None:
            record.update(tracer.snapshot())
            # Registered first, this runs after the interpreter has
            # joined the pool workers, so it sees their CPU time.
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            record["children_cpu_s"] = children.ru_utime + children.ru_stime
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)

    atexit.register(write_record)

    parse_args = argparse.ArgumentParser.parse_args

    def timed_parse_args(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        record.setdefault("parsed_at", time.monotonic())
        if mode == "setup":
            write_record()
            os._exit(0)
        return namespace

    argparse.ArgumentParser.parse_args = timed_parse_args
    sys.argv = ["repro", *argv]
    sys.path[0] = os.getcwd()  # as ``python -m`` would have it
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
