"""Running the deplen CLI as a capped child process, and judging the result."""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

OP_TIME_CAP_S = 20
OP_MEMORY_CAP_MB = 1024
# The error deplen gives today for a chars search past n = 12 (ROADMAP
# failure 1).  Only an exit 2 with this message is the known limit.
KNOWN_LIMIT_MESSAGE = "projective enumeration is limited to n <= 12"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how to judge it."""

    config: str
    args: tuple[str, ...]
    items: int
    check: Callable[[str], None]
    known_limit: bool = False  # the shard can hit the baseline n <= 12 failure


@dataclass(frozen=True)
class Outcome:
    wall: float
    rss_kb: int
    status: str  # "ok", "known-limit", "timeout", "memory-cap", "exit-N", "rejected"
    detail: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _limit_child():
    cap = OP_MEMORY_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_cli(args, workdir: Path):
    """Run ``python -m deplen ARGS``; return (wall_s, exit_code, rss_kb, killed, out, err).

    The child gets an address-space cap; a wall-clock alarm kills it after
    OP_TIME_CAP_S.  stdout and stderr go to files, so a large output cannot
    block on a full pipe.  The parent starts no threads, so the
    ``preexec_fn`` that sets the cap is safe.
    """
    out_path, err_path = workdir / "op.out", workdir / "op.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "deplen", *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
            preexec_fn=_limit_child,
        )

        def on_alarm(signum, frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_CAP_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (
        wall,
        code,
        usage.ru_maxrss,
        code == -signal.SIGKILL,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_op(op: Op, workdir: Path, accepted: set) -> Outcome:
    """Run one operation, then check its output outside the timed window.

    ``accepted`` remembers (args, output) pairs that passed the checker, so
    byte-identical output of a repeated operation is not checked again.
    """
    wall, code, rss, killed, out, err = run_cli(op.args, workdir)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    if killed:
        return Outcome(wall, rss, "timeout", "killed after %d s" % OP_TIME_CAP_S)
    if "MemoryError" in err:
        return Outcome(wall, rss, "memory-cap", last)
    if code == 2 and op.known_limit and KNOWN_LIMIT_MESSAGE in err:
        return Outcome(wall, rss, "known-limit", last)
    if code != 0:
        return Outcome(wall, rss, "exit-%d" % code, last)
    if (op.args, out) not in accepted:
        try:
            op.check(out)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return Outcome(wall, rss, "rejected", "%s: %s" % (type(e).__name__, e))
        accepted.add((op.args, out))
    return Outcome(wall, rss, "ok")


def is_incorrect(status: str) -> bool:
    """A rejected output or an unexplained exit; caps and the known limit are not."""
    return status == "rejected" or status.startswith("exit-")


def setup_sample(workdir: Path) -> float:
    """Wall time of one ``deplen --version``."""
    wall, code, _, _, out, err = run_cli(["--version"], workdir)
    if code != 0 or not out.strip():
        raise BenchError("deplen --version failed: %s" % err.strip())
    return wall
