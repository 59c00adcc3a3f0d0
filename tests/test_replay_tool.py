"""``tools/replay_facades.py`` prints the same bytes on every run.

The replay compares two checkouts by ``cmp``-ing their record files, so
one seed replayed twice, in two fresh processes, must agree byte for
byte, and every call must leave a record.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _replay() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_facades.py"), "--seeds", "1"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout


def test_one_seed_replays_identically():
    first = _replay()
    assert first == _replay()
    records = [json.loads(line) for line in first.splitlines()]
    digests = [record["facade"] for record in records if "digest" in record]
    assert len(digests) == len(set(digests)) == 8
    calls = [record for record in records if "digest" not in record]
    assert all(("answer" in record) != ("error" in record) for record in calls)
    assert all("cost" in record for record in calls if "answer" in record)
    assert any(record["call"].startswith("range_nn((") for record in calls)
