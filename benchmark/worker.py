"""Workload process: runs operations in-process and times each one.

Reads one JSON request per line on stdin and answers each with one JSON
line on stdout:

  {"op": "cli", "argv": [...]}           reluctant_walk.cli.main(argv)
  {"op": "channel", "k": K, "theta": T}  walk.channel_position_pmf from the origin
  {"op": "trace", "on": true|false}      install or remove the span wrappers
  {"op": "finish"}                       peak RSS and the spans, then exit

Names are looked up on their modules at call time, so installed wrappers
are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from reluctant_walk import cli, walk

from tracing import Tracer


def run(request, tracer):
    if request["op"] == "cli":
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            start = time.perf_counter()
            code = cli.main(request["argv"])
            seconds = time.perf_counter() - start
        return {"seconds": seconds, "rc": code, "text": text.getvalue()}
    if request["op"] == "channel":
        coin = walk.CoinParameter(request["theta"])
        origin = walk.WalkState.origin()
        start = time.perf_counter()
        pmf = walk.channel_position_pmf(origin, coin, request["k"])
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "rc": 0, "sites": list(pmf.table),
                "p": list(pmf.table.values())}
    if request["op"] == "trace":
        if request["on"]:
            tracer.install()
        else:
            tracer.uninstall()
        return {}
    if request["op"] == "finish":
        return {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": tracer.spans, "counters": tracer.counters, "peaks": tracer.peaks}
    raise ValueError(f"unknown request {request['op']!r}")


def main():
    replies = sys.stdout
    tracer = Tracer()
    print(json.dumps({"package": cli.__file__}), file=replies, flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        try:
            reply = run(request, tracer)
        except Exception as exc:  # the operation failed; the process keeps serving
            reply = {"seconds": None, "rc": None, "error": repr(exc)}
        print(json.dumps(reply), file=replies, flush=True)
        if request["op"] == "finish":
            break


if __name__ == "__main__":
    main()
