"""analyze streams its corpus: its peak memory does not grow with the corpus.

A 20,000-sentence corpus (ten treebank files the size of UD English-EWT's
dev file) is measured in child processes, whose peak resident set size
the kernel reports.  Reading the whole corpus before measuring it took
86 MB for the words table and chars JSON and 136 MB for words JSON.
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


def test_analyze_peaks_below_a_bound_that_does_not_grow_with_the_corpus(corpus):
    runs = {
        "words table": [],
        "chars log json": ["--unit", "chars", "--g", "log", "--format", "json"],
        "words json": ["--format", "json"],
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawners = {
        name: subprocess.Popen(
            [sys.executable, "-c", SPAWN, sys.executable, "-m", "deplen", "analyze",
             str(corpus), *flags],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        for name, flags in runs.items()
    }
    peak_mb = {}
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10  # ru_maxrss in bytes, else KiB
    for name, spawner in spawners.items():
        out, _ = spawner.communicate()
        code, maxrss = map(int, out.split())
        assert (spawner.returncode, code) == (0, 0), name
        peak_mb[name] = maxrss / scale
    # On CPython 3.11, Linux x86-64: 30, 24 and 27 MB.  A table holds its rows
    # while it is written, and words JSON each sentence's histogram.
    assert max(peak_mb.values()) < LIMIT_MB, peak_mb
