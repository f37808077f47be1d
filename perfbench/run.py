"""ctlab benchmark: time to a verified answer, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ctlab checkout; ctlab is imported from ``src/``.
Every sample runs in a fresh single-threaded Python process
(``perfbench/workloads.py``) and is gated on label-invariant facts.

--trace 0 measures the end-to-end metrics: the set-up time (interpreter
start plus imports, median of several fresh processes), then samples until
``--seconds`` is spent (at least one), reporting medians of wall time and
peak RSS, and the fraction of jobs that passed the gate.

--trace 1 runs one untraced and one traced sample of the same seed, checks
that their results are equal, and reports the per-layer metrics of the
traced one with the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without a ctlab source tree
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SAMPLER = os.path.join(HERE, "workloads.py")
SETUP_REPS = 10         # fresh interpreters per set-up measurement
RUN_LIMIT = 170.0       # seconds; a run must end within 180

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402  (imports no ctlab module)


class SampleFailed(Exception):
    pass


def child_env(seed, sample=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # set-up is timed as an installed user pays it: with cached bytecode
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Hash order changes how much work some set iterations do.  The seed
    # fixes it, and each sample of a run gets its own, so the median of a
    # run does not rest on one hash layout.
    env["PYTHONHASHSEED"] = str((seed * 1000003 + sample) % 4294967296)
    return env


def import_code(workload):
    return "import " + ", ".join(WORKLOADS[workload][1])


def preflight(workload, seed):
    """Fail unless ctlab imports from this checkout's src/; this also
    compiles the bytecode the timed set-ups then reuse."""
    if not os.path.isfile(os.path.join(SRC, "ctlab", "__init__.py")):
        raise SampleFailed(f"no ctlab source tree under {SRC}")
    code = import_code(workload) + "; import ctlab; print(ctlab.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(seed),
                          capture_output=True, text=True, timeout=60)
    where = proc.stdout.strip()
    if proc.returncode != 0 or not where.startswith(SRC + os.sep):
        raise SampleFailed(f"ctlab does not import from {SRC}: "
                           f"{proc.stderr.strip() or where}")


def time_setups(workload, seed, reps):
    """Wall times of ``reps`` fresh interpreters importing the workload's
    ctlab modules.  The wait blocks: a wait with a timeout polls at up to
    50 ms intervals, which would quantise these ~0.1 s times."""
    cmd = [sys.executable, "-c", import_code(workload)]
    env, times = child_env(seed), []
    for _ in range(reps):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL) as proc:
            watchdog = threading.Timer(60, proc.kill)
            watchdog.start()
            code = proc.wait()
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise SampleFailed(f"importing ctlab exited {code}")
    return times


def run_sample(workload, seed, sample, traced, timeout):
    cmd = [sys.executable, SAMPLER, "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, env=child_env(seed, sample),
                              capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"sample timed out after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(f"sample exited {proc.returncode}: "
                           + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1])


def summarize(sample, label):
    ok = sum(j["ok"] for j in sample["jobs"])
    print(f"{label}: wall {sample['wall_s']:.3f} s, "
          f"peak rss {sample['peak_rss_mb']:.1f} MB, "
          f"jobs {ok}/{len(sample['jobs'])} verified")
    for j in sample["jobs"]:
        if not j["ok"]:
            print(f"  FAILED {j['job']}: {j.get('error') or j['facts']}")
    print("  digests " + " ".join(
        f"{j['job']}={(j.get('digest') or '-')[:12]}" for j in sample["jobs"]))


def end_to_end(args, started):
    # half the set-ups before the samples and half after, so that one slow
    # phase of a shared machine does not decide the median
    setups = time_setups(args.workload, args.seed, SETUP_REPS // 2)
    samples, attempted, failed = [], 0, 0
    t0 = time.perf_counter()
    while True:
        remaining = RUN_LIMIT - (time.perf_counter() - started)
        try:
            sample = run_sample(args.workload, args.seed, len(samples), False,
                                remaining)
        except SampleFailed as exc:
            print(f"sample {len(samples) + 1}: {exc}", file=sys.stderr)
            attempted += 1
            failed += 1
            break
        samples.append(sample)
        attempted += len(sample["jobs"])
        failed += sum(not j["ok"] for j in sample["jobs"])
        summarize(sample, f"sample {len(samples)}")
        spent = time.perf_counter() - t0
        per_sample = spent / len(samples)
        if (spent + per_sample > args.seconds
                or time.perf_counter() - started + 1.5 * per_sample > RUN_LIMIT):
            break
    if not samples:
        raise SampleFailed("no sample completed")
    setups += time_setups(args.workload, args.seed,
                          SETUP_REPS - SETUP_REPS // 2)
    print(f"{len(samples)} samples, set-up median of {SETUP_REPS}")
    metrics = {
        "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples),
                        "MB"),
        "verified_frac": (1 - failed / attempted, "frac"),
    }
    return metrics, attempted, failed


def per_layer(args, started):
    plain = run_sample(args.workload, args.seed, 0, False,
                       RUN_LIMIT - (time.perf_counter() - started))
    summarize(plain, "untraced")
    traced = run_sample(args.workload, args.seed, 0, True,
                        RUN_LIMIT - (time.perf_counter() - started))
    summarize(traced, "traced")
    # a job counts only if it passed the gate with equal facts and digests
    attempted = len(plain["jobs"])
    failed = attempted - sum(a["ok"] and a == b for a, b
                             in zip(plain["jobs"], traced["jobs"]))
    if failed:
        print(f"{failed} jobs failed or differ when traced")
    overhead = traced["wall_s"] / plain["wall_s"] - 1
    print(f"tracing overhead {overhead:+.1%} "
          f"({plain['wall_s']:.3f} s -> {traced['wall_s']:.3f} s)")
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    try:
        preflight(args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, started)
    except (SampleFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
