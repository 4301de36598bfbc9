import os
import subprocess
import sys
from pathlib import Path

import pytest

from treegrowth import build_atlas, fabrykowski_gupta, first_grigorchuk
from treegrowth.incompressible import approximate_I_infty


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session")
def run_fresh():
    """Run `python ARGV...` in a fresh interpreter with the package from
    src/ and the given PYTHONHASHSEED; returns the CompletedProcess."""
    def run(argv, hash_seed):
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join([SRC] + ([path] if path else [])))
        return subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, timeout=300)
    return run


@pytest.fixture(scope="session")
def fg_spec():
    return fabrykowski_gupta()


@pytest.fixture(scope="session")
def grig_spec():
    return first_grigorchuk()


def audited(atlas):
    """The atlas, after its engine's invariants are asserted."""
    atlas.engine.audit()
    return atlas


@pytest.fixture(scope="session")
def fg_atlas6(fg_spec):
    return audited(build_atlas(fg_spec, 6))


@pytest.fixture(scope="session")
def fg_report6(fg_atlas6):
    return approximate_I_infty(fg_atlas6, 6)


@pytest.fixture(scope="session")
def grig_atlas8(grig_spec):
    return audited(build_atlas(grig_spec, 8))


# The deep table drives the whole-ball checks; building it takes 1.1 to
# 1.9 s and auditing its engine, 4,013 ids, about 0.03 s (2 cores, Python
# 3.11), so it is shared across the session.
@pytest.fixture(scope="session")
def fg_atlas10(fg_spec):
    return audited(build_atlas(fg_spec, 10))


@pytest.fixture(scope="session")
def fg_report10(fg_atlas10):
    return approximate_I_infty(fg_atlas10, 6)
