"""deplen benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Workloads (``--workload``), each a closed loop of one client that starts
the next ``deplen`` invocation when the previous one has ended:

  analyze   treebank-file-sized shards; operations alternate between
            ``analyze`` (words, identity, table) and
            ``analyze --unit chars --g log --format json``.
  optimize  small shards; operations alternate between
            ``optimize --max-n 9`` and ``optimize --unit chars --g power:2``.
  predict   ``predict --format json``, the fixed 29-scenario suite.

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s``
(median wall time of ``deplen --version``), ``op_s.p50`` and ``op_s.tail``
(per-operation wall time: the median, and the highest percentile with ten
operations beyond it), ``items_per_s`` (sentences, or scenarios for
predict, completed per second of operation wall time), ``peak_rss_mb``
(largest max-RSS of a CLI child) and ``success_rate`` (1 - error_rate).

The speed of a shared machine drifts by tens of percent over minutes, and
a run would carry that drift in its figures.  So every timing is taken
between two runs of a fixed reference process (interpreter start-up,
standard-library imports and a pure-Python loop, no deplen), and is
reported at reference speed: scaled by REFERENCE_NOMINAL_S over the mean
time of the reference just before and just after it (see Clock).  A
slower program still shows in full; a slower machine largely does not.
The unscaled figures are in the report as ``raw.setup_s``,
``raw.op_s.p50``, ``raw.op_s.tail`` and ``raw.items_per_s``.

With ``--trace 1`` it times the public functions of each deplen module
in-process, with spans (see layers.py), and reports the per-layer
metrics.  Either way the last stdout line is the JSON result; the line
before it is a JSON report with provenance, input properties and the
figures that do not fit a single number (tail percentile, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from proc import (  # noqa: E402
    OP_TIME_CAP_S,
    OUT,
    ROOT,
    SRC,
    BenchError,
    child_env,
    is_incorrect,
    run_op,
    setup_sample,
)

# A run stops measuring at the first round boundary after --seconds; this
# much later it stops mid-round.
HARD_EXTRA_S = 60
# deplen --version is timed at the start and then at round boundaries
# every SETUP_EVERY_S of operation time; setup_s is the median.
SETUP_FIRST = 3
SETUP_EVERY_S = 2.0
# The reference process does what every CLI child does before and around
# its own work.  It takes about REFERENCE_NOMINAL_S on the 2-CPU machine
# where the benchmark was defined (Python 3.11.7), at its usual speed.
# Its time tracked that of `deplen predict` with a correlation of 0.77
# there, against 0.44 for a pure-Python loop run inside this process.
REFERENCE_CODE = """
import argparse, fractions, json, unicodedata
acc = 0
for i in range(300_000):
    acc += i * i
"""
REFERENCE_NOMINAL_S = 0.14
TAIL_BEYOND = 10
# error_rate at the commit that defined the benchmark.  On optimize, every
# chars operation on a type-B shard exits 2: projective enumeration stops
# at n = 12 and those shards hold longer sentences.
BASELINE_ERROR_RATE = {"analyze": 0.0, "optimize": 1 / 6, "predict": 0.0}


def reference_s() -> float:
    """Wall time of the fixed reference process: the machine's current speed."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", REFERENCE_CODE],
        stdin=subprocess.DEVNULL,
        env=child_env(),
        cwd=ROOT,
        check=True,
        timeout=OP_TIME_CAP_S,
    )
    return time.perf_counter() - start


class Clock:
    """Scale factors that bring a timing to reference speed.

    Call ``scale()`` right after each timing: it runs the reference and
    returns REFERENCE_NOMINAL_S over the mean of this reference time and
    the previous one, which bracket the timing.
    """

    def __init__(self):
        self.last = reference_s()

    def scale(self) -> float:
        now = reference_s()
        factor = 2 * REFERENCE_NOMINAL_S / (self.last + now)
        self.last = now
        return factor


def measure(rounds, seconds: float, workdir: Path):
    """Run whole rounds until the operations' wall time reaches ``seconds``.

    Stopping only at round boundaries keeps the mix of configurations
    exact, so the percentiles do not depend on where a run was cut.
    Returns (op, outcome, scale) triples and (wall, scale) setup samples.
    """
    setup_sample(workdir)  # warm-up: byte-compiles deplen if needed
    clock = Clock()
    setup, samples, accepted = [], [], set()
    for _ in range(SETUP_FIRST):
        setup.append((setup_sample(workdir), clock.scale()))
    timed = last_setup = 0.0
    r = 0
    while timed < seconds:
        for op in rounds[r % len(rounds)]:
            outcome = run_op(op, workdir, accepted)
            samples.append((op, outcome, clock.scale()))
            timed += outcome.wall
            if timed >= seconds + HARD_EXTRA_S:
                return samples, setup
        r += 1
        if timed - last_setup >= SETUP_EVERY_S:
            setup.append((setup_sample(workdir), clock.scale()))
            last_setup = timed
    return samples, setup


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(walls)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(workload: str, seed: int, seconds: int, workdir: Path):
    rounds, _, props = workloads.BUILD[workload](seed, workdir)
    samples, setup = measure(rounds, seconds, workdir)
    walls = [o.wall * scale for _, o, scale in samples]
    raw_walls = [o.wall for _, o, _ in samples]
    setup_walls = [wall * scale for wall, scale in setup]
    failed = [(op, o) for op, o, _ in samples if o.status != "ok"]
    items = sum(op.items for op, o, _ in samples if o.status == "ok")
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.tail": (tail_s, "s"),
        "items_per_s": (items / sum(walls), "1/s"),
        "peak_rss_mb": (max(o.rss_kb for _, o, _ in samples) / 1024, "MB"),
        "success_rate": (1 - len(failed) / len(samples), "ratio"),
    }
    by_config = {}
    for (op, _, _), wall in zip(samples, walls):
        by_config.setdefault(op.config, []).append(wall)
    report = {
        "error_rate": len(failed) / len(samples),
        "op_s.tail": {"percentile": tail_pct, "samples": len(walls)},
        "raw.op_s.p50": statistics.median(raw_walls),
        "raw.op_s.tail": tail(raw_walls)[0],
        "raw.items_per_s": items / sum(raw_walls),
        "raw.setup_s": statistics.median(wall for wall, _ in setup),
        "speed": statistics.median(scale for _, _, scale in samples),
        "timed_s": sum(raw_walls),
        "items": items,
        "setup_share": metrics["setup_s"][0] / metrics["op_s.p50"][0],
        "setup_s.samples": len(setup),
        "outcomes": dict(Counter(o.status for _, o, _ in samples)),
        "failures": sorted({"%s %s: %s" % (op.config, o.status, o.detail) for op, o in failed}),
        "op_s.p50_by_config": {c: statistics.median(w) for c, w in by_config.items()},
        "inputs": props,
    }
    correct = not any(is_incorrect(o.status) for _, o, _ in samples)
    return correct, len(samples), len(failed), metrics, report


def git_state():
    """(commit, dirty) of the checkout, or (None, None) if it is not a git tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode != 0 or Path(lines[0]).resolve() != ROOT:
            return None, None
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        return lines[1], bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError, IndexError):
        return None, None


def provenance(workload: str, seed: int) -> dict:
    commit, dirty = git_state()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "workload": workload,
        "baseline_error_rate": BASELINE_ERROR_RATE,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deplen" / "__init__.py").is_file():
        print("error: no deplen sources under %s" % SRC, file=sys.stderr)
        return 2
    workdir = OUT / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import layers

            outcome = layers.traced_run(args.workload, args.seed, args.seconds, workdir)
        else:
            outcome = end_to_end(args.workload, args.seed, args.seconds, workdir)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics, report = outcome
    report["provenance"] = provenance(args.workload, args.seed)
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
