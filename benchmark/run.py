"""Benchmark of reluctant-walk: four workloads, four end-to-end metrics each.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload NAME --repeat 10 [--seed N]   # steadiness

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the make-up of the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_STARTS = 5        # cold starts per run, after one that is not counted
IMPORTTIME_STARTS = 5
WATCHDOG_S = 170        # a run that hangs is killed before the 180 s limit
COLD_START = "import reluctant_walk.cli"
PROBE_REF_S = 0.010     # machine speed the timings are scaled to: the probe takes 10 ms
PROBE_EVERY_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "small_ops_per_s": "1/s",
    "large_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span, field); field 0 calls, 1 inclusive s, 2 self s
SPAN_METRICS = {
    "estimation.log_likelihood.calls": ("count", "estimation.log_likelihood", 0),
    "estimation.log_likelihood.self_s": ("s", "estimation.log_likelihood", 2),
    "estimation.optimizer.calls": ("count", "estimation.optimizer", 0),
    "estimation.optimizer.s": ("s", "estimation.optimizer", 1),
    "estimation.level_set_solve.self_s": ("s", "estimation.level_set_solve", 2),
    "pmf.pmf_full_float.calls": ("count", "pmf.pmf_full_float", 0),
    "pmf.pmf_full_float.self_s": ("s", "pmf.pmf_full_float", 2),
    "pmf.pmf_full_exact.calls": ("count", "pmf.pmf_full_exact", 0),
    "pmf.pmf_full_exact.self_s": ("s", "pmf.pmf_full_exact", 2),
    "pmf.pmf_point.calls": ("count", "pmf.pmf_point", 0),
    "pmf.pmf_point.self_s": ("s", "pmf.pmf_point", 2),
    "chebyshev.y_poly.calls": ("count", "chebyshev.y_poly", 0),
    "chebyshev.y_poly.self_s": ("s", "chebyshev.y_poly", 2),
    "walk.evolve.s": ("s", "walk.evolve", 1),
    "walk.position_pmf.s": ("s", "walk.position_pmf", 1),
    "walk.channel_position_pmf.self_s": ("s", "walk.channel_position_pmf", 2),
    "walk.kraus_kernels.s": ("s", "walk.kraus_kernels", 1),
    "cli.main.self_s": ("s", "cli.main", 2),
}
PER_LAYER = {
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    "chebyshev.y_rows": "count",
    "walk.channel_dense_mb": "MB",
    "setup.scipy_import_s": "s",
    "setup.numpy_import_s": "s",
    "setup.package_import_s": "s",
    "trace.small_overhead_pct": "%",
    "trace.large_overhead_pct": "%",
}


class BenchmarkError(RuntimeError):
    pass


def workload_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ------------------------------------------------------------------ machine speed


def speed_probe() -> float:
    """Seconds for a fixed piece of allocation and array work.

    A shared host can slow a CPU and its memory 1.5-2x for stretches of
    seconds to minutes, so raw timings of identical runs differ by up to
    40% (see README.md).  Timings are scaled by this probe's median over
    the same run on the same CPU, which follows those stretches.
    """
    start = time.perf_counter()
    values = np.ones(1_000_000)
    np.exp(1j * values[:300_000])
    values * 1.0001 + 1.0
    return time.perf_counter() - start


# ------------------------------------------------------------------ set-up


def cold_start(env, flags=()):
    """Wall time and stderr of one fresh interpreter importing the CLI."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode:
        raise BenchmarkError(f"cold start failed: {proc.stderr.strip()}")
    return seconds, proc.stderr


def import_breakdown(stderr: str) -> dict:
    """Seconds that numpy, scipy and the rest take in ``-X importtime`` output
    of one cold start."""
    entries = []                                 # (depth, name, cumulative us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(),
                        int(cumulative)))

    def parent(i):                               # a parent is listed after its children
        return next((j for j in range(i + 1, len(entries))
                     if entries[j][0] < entries[i][0]), None)

    def family(j):
        name = entries[j][1]
        return next((p for p in ("numpy", "scipy", "reluctant_walk")
                     if name == p or name.startswith(p + ".")), None)

    def outermost(families):
        """Cumulative seconds per family, counting each entry of ``families``
        that no other entry of ``families`` encloses."""
        totals = dict.fromkeys(families, 0)
        for i in range(len(entries)):
            if family(i) not in families:
                continue
            j = parent(i)
            while j is not None and family(j) not in families:
                j = parent(j)
            if j is None:
                totals[family(i)] += entries[i][2] / 1e6
        return totals

    # a numpy module that scipy imports counts as scipy's, so the parts are disjoint
    libraries = outermost(("numpy", "scipy"))
    package = outermost(("reluctant_walk",))["reluctant_walk"]
    return {"setup.numpy_import_s": libraries["numpy"],
            "setup.scipy_import_s": libraries["scipy"],
            "setup.package_import_s": package - libraries["numpy"] - libraries["scipy"]}


# ------------------------------------------------------------------ worker


class Worker:
    """The workload process, spoken to one JSON line at a time."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                                     env=env, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(WATCHDOG_S, self.proc.kill)
        self.watchdog.start()
        try:
            package = os.path.realpath(self._read()["package"])
            if not package.startswith(os.path.realpath(SRC) + os.sep):
                raise BenchmarkError(f"reluctant_walk imported from {package}, not {SRC}")
        except BaseException:
            self.close()
            raise

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError(f"workload process ended (code {self.proc.poll()})")
        return json.loads(line)

    def ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# ------------------------------------------------------------------ one run


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def record(self, reply, check, label):
        self.attempted += 1
        if reply.get("rc") != 0:
            self.failed += 1
            print(f"FAIL {label}: {reply.get('error') or reply.get('text', '').strip()}",
                  file=sys.stderr)
            return False
        try:
            problem = check(reply)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            self.wrong.append(f"{label}: {problem}")
            print(f"WRONG {label}: {problem}", file=sys.stderr)
            return False
        return True


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    workload_id = sorted(WORKLOADS).index(name)
    env = workload_env()
    # a shared host slows each CPU on its own, so the probe, the workload
    # process and the cold starts (which inherit this) share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # cold starts are spread between the rounds, so that they sample the
    # machine over the whole run; the first one is not counted
    flags = ("-X", "importtime") if trace else ()
    starts_wanted = IMPORTTIME_STARTS if trace else SETUP_STARTS
    cold_start(env, flags)
    starts = []

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_tmp"))
    tally = Tally()
    times = {"small": [], "large": []}
    untraced = {"small": [], "large": []}     # trace runs: rounds run without spans
    counter = {"small": 0, "large": 0}
    probes, last_probe = [], -math.inf
    worker = Worker(env)
    try:
        def operate(cls, timed):
            nonlocal last_probe
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(speed_probe())
                last_probe = time.perf_counter()
            index = counter[cls]
            counter[cls] += 1
            rng = np.random.default_rng([seed, workload_id, int(cls == "large"), index])
            tag = f"{cls}-{index}"
            request, check = getattr(workload, cls)(rng, tag, tmp)
            reply = worker.ask(request)
            if tally.record(reply, check, tag) and timed is not None:
                timed[cls].append(reply["seconds"])
            for leftover in os.listdir(tmp):
                if leftover.startswith(tag):
                    os.unlink(os.path.join(tmp, leftover))

        for cls in ("small", "large"):
            operate(cls, None)                  # warm-up, not timed
        # whole rounds, stopping at the round end nearest the time budget;
        # a traced run needs a traced and an untraced round
        rounds, elapsed = 0, 0.0
        while rounds < 1 + trace or elapsed + elapsed / rounds / 2 < seconds:
            traced = trace and rounds % 2 == 0
            if trace:
                worker.ask({"op": "trace", "on": traced})
            clock = time.perf_counter()
            for cls in workload.round:
                operate(cls, times if not trace or traced else untraced)
            elapsed += time.perf_counter() - clock
            rounds += 1
            if len(starts) < starts_wanted:
                starts.append(cold_start(env, flags))
        if trace:
            worker.ask({"op": "trace", "on": False})
        while len(starts) < starts_wanted:
            starts.append(cold_start(env, flags))
        final = worker.ask({"op": "finish"})
    finally:
        worker.close()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):     # left in place while another run uses it
            os.rmdir(os.path.dirname(tmp))

    if not all(times.values()) or trace and not all(untraced.values()):
        raise BenchmarkError("an operation class has no successful timed operation")
    print(f"{name}: seed {seed}, {rounds} rounds, speed probe median "
          f"{1000 * statistics.median(probes):.2f} ms over {len(probes)}, cold start median "
          f"{1000 * statistics.median(t for t, _ in starts):.1f} ms", file=sys.stderr)
    for cls in ("small", "large"):
        print(f"{name} {cls}: {len(times[cls])} timed, median "
              f"{1000 * statistics.median(times[cls]):.1f} ms, fastest "
              f"{1000 * min(times[cls]):.1f} ms", file=sys.stderr)
    if trace:
        parts = [import_breakdown(stderr) for _, stderr in starts]
        metrics = {key: statistics.median(p[key] for p in parts) for key in parts[0]}
        traced_ops = sum(len(v) for v in times.values())
        metrics.update(layer_metrics(final, traced_ops))
        for cls in ("small", "large"):
            ratio = statistics.median(times[cls]) / statistics.median(untraced[cls])
            metrics[f"trace.{cls}_overhead_pct"] = 100.0 * (ratio - 1.0)
        units = PER_LAYER
    else:
        scale = PROBE_REF_S / statistics.median(probes)
        metrics = {"setup_s": scale * statistics.median(t for t, _ in starts)}
        for cls in ("small", "large"):
            metrics[f"{cls}_ops_per_s"] = 1.0 / (scale * statistics.median(times[cls]))
        metrics["peak_rss_mb"] = final["maxrss_kb"] / 1024.0
        units = END_TO_END
    result = {"correct": not tally.wrong, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {key: {"value": metrics[key], "unit": unit}
                          for key, unit in units.items()}}
    return result


def layer_metrics(final, ops):
    """Per-layer numbers per timed operation of the traced rounds."""
    spans, out = final["spans"], {}
    for metric, (_, span, field) in SPAN_METRICS.items():
        out[metric] = spans.get(span, [0, 0.0, 0.0])[field] / ops
    out["chebyshev.y_rows"] = final["counters"].get("chebyshev.y_rows", 0) / ops
    out["walk.channel_dense_mb"] = final["peaks"].get("walk.channel_dense_mb", 0.0)
    return out


# ------------------------------------------------------------------ steadiness


def steadiness(args):
    """Run the benchmark ``--repeat`` times with consecutive seeds and print
    each metric's median, quartiles and spread (q3 - q1) / median."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values, failed_shares = {}, []
    for i in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode:
            raise BenchmarkError(f"run {i} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_shares.append(result["failed"] / result["attempted"])
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print(f"run {i + 1}/{args.repeat} seed {args.seed + i}: "
              + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()))
        print("    " + proc.stderr.strip().replace("\n", "\n    "), flush=True)
    print(f"{args.workload}: {args.repeat} runs, failed shares {sorted(set(failed_shares))}")
    for key, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else math.nan
        bound = bounds.get(key)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"  {key:34s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}{note}")
    print(json.dumps({"workload": args.workload, "values": values}))


# ------------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run this many times and summarize")
    args = parser.parse_args(argv)
    if args.repeat == 1:
        parser.error("--repeat needs at least 2 runs for quartiles")
    # a terminated run still stops its workload process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "reluctant_walk", "cli.py")):
        print(f"error: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.repeat:
            steadiness(args)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
