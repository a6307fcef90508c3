import os
import sys
from pathlib import Path

import pytest

from ttsat.encoder import EncodeOptions, encode_with_families
from ttsat.sample import load_sample, sample_text


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("test_acceptance")
    if acceptance and getattr(acceptance, "REPORT_LINES", None):
        terminalreporter.section("acceptance criteria")
        for line in acceptance.REPORT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """The external-solver tests run `python -m ttsat` in a child process,
    which does not see the `pythonpath` that pytest gives this one."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def sample_instance():
    return load_sample()


@pytest.fixture(scope="session")
def sample_json():
    return sample_text()


@pytest.fixture(scope="session")
def sample_weighted(sample_instance):
    """(formula, varmap, families) for the bundled instance, weighted mode."""
    return encode_with_families(sample_instance, EncodeOptions(weighted=True))


@pytest.fixture(scope="session")
def sample_partial(sample_instance):
    return encode_with_families(sample_instance, EncodeOptions(weighted=False))
