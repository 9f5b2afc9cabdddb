"""The fairdiv benchmark: one workload, one closed-loop client, one thread.

    python3 bench/run.py --workload leximin-narrow --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  The
inputs and their expected answers are made from the seed by a separate
process (inputs.py) before anything is timed.  The client then calls
``fairdiv.cli.main`` in-process, one call after another in whole rounds,
with stdout captured, and checks every answer.  Call times are corrected
for the machine's drifting speed by a kernel timed after each call (see
README.md, "Machine speed").  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead.  The
line before it summarises the run (per-kind counts and times).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("leximin-narrow", "leximin-wide", "gadgets")
SETUP_SAMPLES = 5            # fresh interpreters timed before the loop, and again after it
MIN_BEYOND_P90 = 10          # calls the 90th percentile must leave above it
HARD_STOP_S = 100            # the loop ends here even if the run is short of samples
WORK_DIR = ".bench_work"

# The machine's speed drifts: the same pure-Python work runs up to ~40 % slower
# for stretches of seconds to minutes (README.md, "Machine speed").  A fixed
# kernel timed after every call tracks that speed.  Each call time the run
# reports is scaled by KERNEL_REFERENCE_S over the median kernel time around
# it, so the call figures read as times on this machine at its fast speed.
# The summary line keeps the raw figures.
KERNEL_REFERENCE_S = 0.00143      # the kernel at the fast speed: 2 vCPU Xeon, Python 3.11.7
KERNEL_WINDOW = 5                 # kernel samples in the median around each call
_KERNEL_MODULUS = (1 << 1024) - 105


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(src):
    """The measured environment: the program found on ./src first, and no
    FAIRDIV_BUDGET, so an outside setting cannot change the work."""
    os.environ.pop("FAIRDIV_BUDGET", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def kernel_seconds():
    """Time one run of a fixed kernel: interpreter dispatch, a small dict and
    1024-bit integer arithmetic, the mix of the program's hot loops."""
    started = time.perf_counter()
    table, acc, big = {}, 0, 1 << 1000
    for i in range(8000):
        acc = (acc + i * 7919) % 1000003
        table[i & 127] = acc
        if i & 7 == 0:
            big = (big * 3 + acc) % _KERNEL_MODULUS
    return time.perf_counter() - started


def speed_factors(kernel_times):
    """Per sample, how much slower than the reference speed the machine ran:
    the median of the KERNEL_WINDOW kernel times around it, over the
    reference time."""
    half = KERNEL_WINDOW // 2
    return [statistics.median(kernel_times[max(0, i - half):i + half + 1]) / KERNEL_REFERENCE_S
            for i in range(len(kernel_times))]


def measure_setup(env, count):
    """Seconds from starting a fresh interpreter to ``import fairdiv.cli``
    returning in it, once per interpreter.  CLOCK_MONOTONIC is shared by
    all processes, so the child's reading after the import is comparable
    with the parent's reading before the start.  Not speed-corrected: the
    kernel timed next to a process start does not track its cost."""
    samples = []
    for _ in range(count):
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c", "import time, fairdiv.cli; print(time.monotonic())"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout) - started)
    return samples


def invoke(main, argv, tracer=None):
    """One CLI call with stdout and stderr captured: (exit code or the
    exception raised, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                start = time.perf_counter()
                code = main(argv)
                end = time.perf_counter()
            else:
                code, start, end = tracer.root(main, argv)
        except Exception as exc:      # the program crashed: a failed call, not a verdict
            return exc, out.getvalue(), None
    return code, out.getvalue(), end - start


class Tally:
    """Calls attempted, failed and answered wrongly, per kind of call."""

    def __init__(self):
        self.kinds = {}
        self.problems = []

    def add(self, kind, seconds, failure=None, wrong=None):
        entry = self.kinds.setdefault(kind, {"attempted": 0, "failed": 0, "wrong": 0, "times": []})
        entry["attempted"] += 1
        entry["failed"] += failure is not None
        entry["wrong"] += wrong is not None
        if failure is None:
            entry["times"].append(seconds)
        if (failure or wrong) and len(self.problems) < 20:
            self.problems.append(f"{kind}: {failure or wrong}")

    def total(self, field):
        return sum(e[field] for e in self.kinds.values())

    def times(self):
        return [t for e in self.kinds.values() for t in e["times"]]


def run_call(main, call, expect, tally, tracer=None):
    """Make one call, check its answer, and count it.  Returns the call's
    seconds, or None if it failed."""
    code, stdout, seconds = invoke(main, call["argv"], tracer)
    if isinstance(code, BaseException) or code == 3:
        tally.add(call["kind"], None, failure=f"call failed: {code!r}")
        return None
    try:
        checks.check(call, expect, code, stdout)
    except checks.CheckFailed as e:
        tally.add(call["kind"], seconds, wrong=str(e))
        return seconds
    tally.add(call["kind"], seconds)
    return seconds


def percentile_90(times):
    return statistics.quantiles(times, n=10)[8] if len(times) >= 10 else max(times)


def beyond_p90(times):
    if len(times) < 10:
        return 0
    p90 = percentile_90(times)
    return sum(1 for t in times if t > p90)


def measure(args, root, src, work):
    env = _environment(src)
    subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", work], env=env, check=True, timeout=150)
    with open(os.path.join(work, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)

    setup = []
    if not args.trace:
        measure_setup(env, 1)         # writes bytecode caches in a fresh checkout; not counted
        setup += measure_setup(env, SETUP_SAMPLES)

    sys.path.insert(0, src)
    import fairdiv.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise RuntimeError(f"fairdiv was imported from {cli.__file__}, not from {src}")

    # documents the loop reads, and one checked call of each kind before timing
    setup_tally = Tally()
    documents = {}
    for call in plan["pre"]:
        if run_call(cli.main, call, call["expect"], setup_tally) is not None:
            documents[call["argv"][-1]] = checks.read_document(call["argv"][-1])
    calls = plan["round"]
    expects = [checks.prepare(call, documents) for call in calls]
    seen = set()
    for call, expect in zip(calls, expects):
        if call["kind"] not in seen:
            seen.add(call["kind"])
            run_call(cli.main, call, expect, setup_tally)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    tally = Tally()
    records = []                      # per call: (call seconds or None, seconds with its check, kernel)
    started = time.perf_counter()
    rounds = 0
    while True:
        for call, expect in zip(calls, expects):
            call_started = time.perf_counter()
            seconds = run_call(cli.main, call, expect, tally, tracer)
            records.append((seconds, time.perf_counter() - call_started, kernel_seconds()))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= args.seconds and beyond_p90(tally.times()) >= MIN_BEYOND_P90:
            break

    if not args.trace:
        setup += measure_setup(env, SETUP_SAMPLES)

    factors = speed_factors([kernel for _, _, kernel in records])
    raw = [seconds for seconds, _, _ in records if seconds is not None]
    times = [seconds / f for (seconds, _, _), f in zip(records, factors) if seconds is not None]
    completed = len(times)
    busy = sum(spent for _, spent, _ in records)
    busy_corrected = sum(spent / f for (_, spent, _), f in zip(records, factors))
    if not times:                     # no call returned; `failed` says so
        raw = times = [0.0]
    problems = setup_tally.problems + tally.problems
    wrong = setup_tally.total("wrong") + tally.total("wrong")
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "calls_per_round": len(calls), "loop_s": elapsed,
        "samples": completed, "beyond_p90": beyond_p90(times),
        "speed_factor_median": statistics.median(factors),
        "raw": {"calls_per_s": completed / busy, "call_ms_p50": statistics.median(raw) * 1000,
                "call_ms_p90": percentile_90(raw) * 1000},
        "setup_samples_s": setup,
        "kinds": {k: {"attempted": e["attempted"], "failed": e["failed"], "wrong": e["wrong"],
                      "median_ms": statistics.median(e["times"]) * 1000 if e["times"] else None}
                  for k, e in sorted(tally.kinds.items())},
        "problems": problems,
    }
    correct = wrong == 0 and completed > 0
    if tracer is not None:
        try:
            layer = tracer.metrics(tally.total("attempted"), factors)
        except ValueError as e:       # the span tree is inconsistent
            correct = False
            problems.append(f"tracer: {e}")
            layer = {}
        layer["trace.calls_per_s"] = (completed / busy_corrected, "1/s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
        tracer.write(os.path.join(root, WORK_DIR, f"spans-{args.workload}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "calls_per_s": {"value": completed / busy_corrected, "unit": "1/s"},
            "call_ms_p50": {"value": statistics.median(times) * 1000, "unit": "ms"},
            "call_ms_p90": {"value": percentile_90(times) * 1000, "unit": "ms"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": tally.total("attempted"),
              "failed": tally.total("failed"), "metrics": metrics}
    return result, summary


def main(argv=None):
    args = _arguments(argv)
    # a terminated run still stops its child process and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fairdiv", "cli.py")):
        print(f"run.py: no program at {src}/fairdiv; run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result, summary = measure(args, root, src, os.path.relpath(work, root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
