"""Golden replay: fixed configs must keep writing the same bytes.

Each case runs one repetition with seed 5 and 3 evaluators and hashes
trace.csv + archive.csv + events.log with SHA-256.  The first six hashes
were recorded before the reply-future / preset-table refactor, the
false-readings-analogue ones before the 2-D staircase archive and layers;
all still hold.  That problem's second objective is built from floored
counts, so its fronts and fitness layers are full of equal-z2 ties.  A
change that alters any message, its order, or the written outputs breaks
them.  A change that alters outputs on purpose must say why and record the
new hashes.
"""

import hashlib

import pytest

from coopt.harness import preset_config, run_once, write_run_dir
from coopt.scheduler import Budget

SEED = 5
GOLDEN = {
    ("mutas-protocol", "biobj-quadratic-5", None, False):
        "3300df44afe090d1a41276e1482bf92a142ff3b6c4e29b45c122f759ec5da654",
    ("mutas-protocol", "biobj-quadratic-5", None, True):
        "c8f473c1356aaa461a7a3abfe07ea25edea97c5474eda2a0a5b3bac4ec7fb01f",
    ("hen-protocol", "ridge-basin-10", 6_000, False):
        "2ae9450de55594dfbbf9e1575c9fec677b23340e1ee0de09c1079ef3f2360b5d",
    ("hen-protocol", "ridge-basin-10", 6_000, True):
        "6fa646e48a78aee41462553bdb1c5d4f31b58f0f665111bef659a4533c5ae34e",
    ("hen-protocol", "constrained-sphere-10", 6_000, False):
        "8601fef4cd0bed1dbef6813cfd7d80fc8e74723986434bfb1d319624f2fe45fe",
    ("hen-protocol", "constrained-sphere-10", 6_000, True):
        "f54b74678c8d4a2a3e614b067a7ce98ddf89d55acb54bb6c4b21c3df9e5e35f3",
    ("mutas-protocol", "false-readings-analogue", None, False):
        "92835ef2bf4923f6969b8eb4e707365fe566039cb326bc61e71cf97df3f186e9",
    ("mutas-protocol", "false-readings-analogue", None, True):
        "dd7e3fff1b08d0cc9e38eb21c395a68142e401b2bc557b749fe76f31186ac6a9",
}


def _case_id(case):
    _preset, problem, _messages, sharing = case
    return f"{problem}-{'cooperating' if sharing else 'independent'}"


@pytest.mark.parametrize("case", list(GOLDEN), ids=_case_id)
def test_outputs_match_golden_hash(tmp_path, case):
    preset, problem, messages, sharing = case
    overrides = {"budget": Budget.messages(messages)} if messages else {}
    cfg = preset_config(preset, problem, seed=SEED, n_evaluators=3,
                        sharing=sharing, repetitions=1, **overrides)
    run_dir = write_run_dir(tmp_path, run_once(cfg, 0))
    digest = hashlib.sha256()
    for name in ("trace.csv", "archive.csv", "events.log"):
        digest.update((run_dir / name).read_bytes())
    assert digest.hexdigest() == GOLDEN[case]
