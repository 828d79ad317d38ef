"""Runs whose peak memory must not grow with what they could list.

analyze streams its corpus: a 20,000-sentence corpus (ten treebank files
the size of UD English-EWT's dev file) is measured in child processes,
whose peak resident set size the kernel reports.  Reading the whole
corpus before measuring it took 86 MB for the words table and chars JSON
and 136 MB for words JSON.  An exact search on a star lists none of its
optima: listing the 725,760 optima of 9 twins took 188 MB.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import deplen

pytestmark = pytest.mark.skipif(not hasattr(os, "wait4"), reason="os.wait4 is POSIX only")

SENTENCES = 20_000
LIMIT_MB = 40
SRC = Path(deplen.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Seeded sentences of 1 to 30 tokens: random attachment, short forms."""
    rng = random.Random(20_000)
    letters = "abcdefghijklmnopqrstuvwxyzéü"
    blocks = []
    for k in range(SENTENCES):
        n = rng.randint(1, 30)
        rows = ["# sent_id = m%d" % k]
        for i in range(1, n + 1):
            form = "".join(rng.choices(letters, k=rng.randint(1, 10)))
            head = rng.randint(1, i - 1) if i > 1 else 0
            rows.append("%d\t%s\t_\t_\t_\t_\t%d\t_\t_\t_" % (i, form, head))
        blocks.append("\n".join(rows))
    path = tmp_path_factory.mktemp("memory") / "c20k.conllu"
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return path


# A child's peak RSS counts the memory of the process that forked it, so
# each run is started from this small process, not from the test's.
SPAWN = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def spawn(*argv):
    """Start `python -m deplen ARGV` from SPAWN."""
    return subprocess.Popen(
        [sys.executable, "-c", SPAWN, sys.executable, "-m", "deplen", *argv],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )


def peak_mb(spawner, name):
    """The spawned run's peak RSS in MB, once it has exited 0."""
    out, _ = spawner.communicate()
    code, maxrss = map(int, out.split())
    assert (spawner.returncode, code) == (0, 0), name
    return maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes, else KiB


def test_analyze_peaks_below_a_bound_that_does_not_grow_with_the_corpus(corpus):
    runs = {
        "words table": [],
        "chars log json": ["--unit", "chars", "--g", "log", "--format", "json"],
        "words json": ["--format", "json"],
    }
    spawners = {name: spawn("analyze", str(corpus), *flags) for name, flags in runs.items()}
    peaks = {name: peak_mb(spawner, name) for name, spawner in spawners.items()}
    # On CPython 3.11, Linux x86-64: 30, 24 and 27 MB.  A table holds its rows
    # while it is written, and words JSON each sentence's histogram.
    assert max(peaks.values()) < LIMIT_MB, peaks


def test_exact_search_on_a_star_lists_none_of_its_optima(tmp_path):
    row = "%d\tw\t_\t_\t_\t_\t%d\t_\t_\t_"
    star = tmp_path / "star.conllu"  # one head with 9 dependents, all twins
    heads = [0] + [1] * 9
    star.write_text("\n".join(row % ih for ih in enumerate(heads, 1)) + "\n", encoding="utf-8")
    argv = "optimize", str(star), "--exact", "--g", "power:2", "--format", "json"
    # On CPython 3.11, Linux x86-64: about 17 MB.
    assert peak_mb(spawn(*argv), "star") < LIMIT_MB
