"""What importing the engine loads.

Scoring runs in-process, and scipy is used by three functions nobody on
the explain, SQL or serving path calls, so importing the entry points
must load neither a process pool nor shared memory nor scipy.  Run in a
fresh interpreter: this test session has imported them already.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

ENTRY_POINTS = ("repro.core", "repro.serve", "repro.cli",
                "repro.workloads.matrix")
FORBIDDEN = ("scipy", "multiprocessing.shared_memory",
             "concurrent.futures.process")

PROBE = """
import json, sys
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy"
                        or m in {forbidden!r})))
""".format(forbidden=FORBIDDEN)


def loaded_forbidden(*modules):
    """Forbidden modules a fresh interpreter holds after importing
    ``modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", PROBE, *modules], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_entry_points_load_no_scipy_pool_or_shared_memory():
    assert loaded_forbidden(*ENTRY_POINTS) == []


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_each_entry_point_alone(module):
    """Each entry point on its own, so a failure names the one that
    pulls a forbidden module in."""
    assert loaded_forbidden(module) == []


def test_the_probe_sees_a_forbidden_import():
    """The probe is not vacuous: importing scipy directly shows."""
    assert "scipy" in loaded_forbidden("repro.core", "scipy")
