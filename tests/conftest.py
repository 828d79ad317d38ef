"""Shared fixtures: the sample corpus and an import path fallback."""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if importlib.util.find_spec("deplen") is None:  # PYTHONPATH or an install wins
    sys.path.insert(0, str(SRC))

import pytest

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def sample_path():
    return DATA / "sample.conllu"


@pytest.fixture(scope="session")
def sample_text(sample_path):
    return sample_path.read_text(encoding="utf-8")


@pytest.fixture()
def sample_trees(sample_text):
    from deplen import parse_conllu

    return parse_conllu(sample_text)
