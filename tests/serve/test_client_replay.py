"""The CI replay path: recorded request log through the client CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import serve_in_thread
from repro.serve.client import main as client_main
from repro.serve.client import replay

from tests.serve.conftest import build_db, build_inputs

ROOT = Path(__file__).resolve().parent.parent.parent
LOG = ROOT / "benchmarks" / "data" / "serve_requests.jsonl"


@pytest.fixture(scope="module")
def inputs():
    return build_inputs()


def test_recorded_log_exists_and_covers_every_kind():
    text = LOG.read_text()
    for kind in ("rknn", "knn", "range", "continuous"):
        assert f'"kind": "{kind}"' in text
    for op in ("insert", "delete", "metrics", "healthz"):
        assert f'"op": "{op}"' in text


def test_replay_succeeds_against_a_live_server(inputs):
    graph, placement = inputs
    db = build_db("disk", graph, placement)
    with serve_in_thread(db) as handle:
        with LOG.open() as handle_file:
            tally = replay(handle_file, handle.host, handle.port)
    assert tally["ok"] == tally["requests"]
    assert tally["overloaded"] == 0


def test_replay_cli_entry_point(inputs, capsys):
    graph, placement = inputs
    db = build_db("compact", graph, placement)
    with serve_in_thread(db) as handle:
        code = client_main([
            "--address", f"{handle.host}:{handle.port}",
            "--replay", str(LOG),
        ])
    assert code == 0
    out = capsys.readouterr().out
    assert "replayed" in out and " ok" in out


def test_replay_fails_loudly_on_error_responses(inputs, tmp_path):
    graph, placement = inputs
    db = build_db("disk", graph, placement)
    bad_log = tmp_path / "bad.jsonl"
    bad_log.write_text('{"op": "query", "kind": "rknn", "query": 99999}\n')
    with serve_in_thread(db) as handle:
        with pytest.raises(AssertionError, match="error response"):
            with bad_log.open() as handle_file:
                replay(handle_file, handle.host, handle.port)


def test_module_entry_point_imports_the_client_once():
    """``python -m repro.serve`` runs the replay CLI without executing
    the client module a second time as ``__main__`` (which Python
    reports as a RuntimeWarning, an error under ``-W error``)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.serve",
         "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "--replay" in result.stdout
