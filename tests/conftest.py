import os
from pathlib import Path

import pytest

from vimotest.analyzer import resolve
from vimotest.model import TestScenario, TestSuite
from vimotest.parser import parse_test_suite, parse_view_model

# model records, not test classes
TestScenario.__test__ = False
TestSuite.__test__ = False

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus" / "taskmanager"
GOLDENS = ROOT / "goldens"

VMDSL_PATH = CORPUS / "task_list.vmdsl"
VMTEST_PATH = CORPUS / "task_list_tests.vmtest"


def bench_corpus(workload: str, seed: int, scale: float):
    """A corpus of the benchmark's generator, ``bench/corpora.py``."""
    import importlib.util
    import sys

    corpora = sys.modules.get("corpora")
    if corpora is None:
        spec = importlib.util.spec_from_file_location("corpora", ROOT / "bench" / "corpora.py")
        corpora = sys.modules["corpora"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpora)
    return corpora.generate(workload, seed, scale)


def child_env(**extra: str) -> dict:
    """The environment of a Python child that finds the package through
    ``src``, without an installed copy. ``PYTHONUNBUFFERED`` is dropped, so
    the child's stdout is block-buffered, as in a plain shell, where output
    left unflushed at exit is lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return dict(env, PYTHONPATH=path, **extra)


@pytest.fixture(scope="session")
def corpus_desc():
    desc, diags = parse_view_model(VMDSL_PATH.read_text(), str(VMDSL_PATH))
    assert desc is not None, [d.render() for d in diags]
    return desc


@pytest.fixture(scope="session")
def corpus_suite():
    suite, diags = parse_test_suite(VMTEST_PATH.read_text(), str(VMTEST_PATH))
    assert suite is not None, [d.render() for d in diags]
    return suite


@pytest.fixture(scope="session")
def corpus_linked(corpus_suite, corpus_desc):
    linked, diags = resolve(corpus_suite, corpus_desc)
    assert linked is not None, [d.render() for d in diags]
    return linked
