"""The package surface: public names resolve on first use, the bench's
names stay public, and a CLI run loads only the modules it runs."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deplen

MEASURING = {
    "deplen",
    "deplen.cli",
    "deplen.conllu",
    "deplen.costs",
    "deplen.errors",
    "deplen.metrics",
    "deplen.tree",
}


def run_loading(sample_path, argv):
    """stdout of a CLI run, and the modules it imported."""
    argv = [str(sample_path) if a == "SAMPLE" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(deplen.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "deplen", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.stdout, loaded


@pytest.mark.parametrize(
    "argv", [["analyze", "SAMPLE"], ["optimize", "--help"], ["--version"]]
)
def test_measuring_and_parsing_flags_load_no_search(sample_path, argv):
    out, loaded = run_loading(sample_path, argv)
    parsing_only = argv[0] != "analyze"  # argparse exits before any command runs
    expected = {"deplen", "deplen.cli"} if parsing_only else MEASURING
    assert {m for m in loaded if m.startswith("deplen")} == expected
    assert "graphlib" not in loaded
    assert not {"csv", "json.encoder"} & loaded  # a table reads and writes neither
    if parsing_only:
        assert not {"dataclasses", "fractions"} & loaded
    assert out.startswith(("analyze: 5 sentence(s)", "usage: deplen optimize", "0."))


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["optimize", "SAMPLE"], MEASURING | {"deplen.optimize"}),
        (["predict"], MEASURING - {"deplen.conllu"} | {"deplen.optimize", "deplen.predictions"}),
    ],
    ids=["optimize", "predict"],
)
def test_start_up_bound_runs_load_only_their_searches(sample_path, argv, modules):
    # these workloads take about as long to start as to run
    out, loaded = run_loading(sample_path, argv)
    assert {m for m in loaded if m.startswith("deplen")} == modules
    assert "deplen.casestudy" not in loaded
    assert "graphlib" not in loaded
    assert out.startswith(("optimize: 5 sentence(s)", "scenario "))


def test_every_public_name_resolves():
    for name in deplen.__all__:
        value = getattr(deplen, name)
        assert vars(deplen)[name] is value  # kept for the next lookup


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from deplen import *", namespace)
    assert set(deplen.__all__) <= namespace.keys()
    assert namespace["cost_D"] is deplen.metrics.cost_D


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        deplen.no_such_name
    with pytest.raises(ImportError):
        exec("from deplen import no_such_name", {})


def test_every_name_the_bench_imports_stays_public():
    # read, not run: the traced bench run calls these names in-process
    layers = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    tree = ast.parse(layers.read_text(encoding="utf-8"))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "deplen"
        for alias in node.names
    }
    assert {"Token", "build_tree", "length_histogram", "enumerate_projective"} <= names
    assert names <= set(deplen.__all__)
    # the bench rebuilds a CostFunction from its fields
    assert [f.name for f in dataclasses.fields(deplen.IDENTITY)] == ["kind", "exponent", "table"]
