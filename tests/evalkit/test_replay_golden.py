"""Golden ranking guard: the smoke replay scorecard, pinned byte for byte.

Two replays of one commit agreeing (``bench_incident_replay.py``) says
nothing about a numerics change that reorders rankings; this compares
the smoke matrix with a committed scorecard instead.  The scorecard
carries ranks, gains, precision/recall and top-family previews but no
raw scores, so it moves only when some ranking does.  A deliberate
ranking change regenerates the file::

    PYTHONPATH=src python -c "from tests.evalkit.test_replay_golden import \\
        smoke_scorecard, GOLDEN; GOLDEN.write_text(smoke_scorecard())"
"""

from pathlib import Path

from repro.evalkit.replay import replay_matrix
from repro.workloads.matrix import matrix_specs

GOLDEN = Path(__file__).with_name("golden_smoke_scorecard.json")


def smoke_scorecard() -> str:
    card = replay_matrix(matrix_specs("smoke"), matrix="smoke")
    return card.to_json(with_timings=False)


def test_smoke_scorecard_matches_the_golden():
    assert smoke_scorecard() == GOLDEN.read_text()
