"""`repro serve`: the CLI boot path, as the CI smoke job drives it."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.serve.client import ServeClient

ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-cli") / "net.graph"
    assert cli_main([
        "generate", "--kind", "grid", "--nodes", "100",
        "--density", "0.1", "--seed", "3", "-o", str(path),
    ]) == 0
    return path


def _spawn_server(graph_file, tmp_path, *extra):
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    ready = tmp_path / "ready.txt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(graph_file),
         "--port", "0", "--ready-file", str(ready), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            break
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited early: {proc.communicate()[1]}"
            )
        time.sleep(0.05)
    else:
        proc.kill()
        raise AssertionError("server never wrote its ready file")
    host, _, port = ready.read_text().strip().rpartition(":")
    return proc, host, int(port)


def test_cli_serves_and_stops_cleanly(graph_file, tmp_path):
    proc, host, port = _spawn_server(graph_file, tmp_path)
    try:
        with ServeClient(host, port) as client:
            response = client.rknn(5, k=2)
            assert response["status"] == "ok"
            health = client.healthz()
            assert health["status"] == "ok"
    finally:
        proc.send_signal(signal.SIGINT)
        stdout, _ = proc.communicate(timeout=30)
    assert "serving" in stdout
    assert proc.returncode == 0


def test_cli_serve_backend_flags(graph_file, tmp_path):
    proc, host, port = _spawn_server(graph_file, tmp_path,
                                     "--backend", "compact",
                                     "--workers", "2",
                                     "--max-batch", "8")
    try:
        with ServeClient(host, port) as client:
            metrics = client.metrics()
            assert metrics["backend"] == "compact"
            response = client.rknn(5, k=2)
            assert response["status"] == "ok"
    finally:
        proc.terminate()
        proc.communicate(timeout=30)


def test_cli_rejects_bad_window(graph_file, capsys):
    assert cli_main(["serve", str(graph_file), "--window-ms", "-1"]) == 1
    assert "--window-ms" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-batch", "--max-queue", "--workers"])
def test_cli_rejects_nonpositive_serve_limits(graph_file, capsys, flag):
    """Misconfigurations must fail at startup with a clean error, not a
    traceback (--max-batch 0) or a server answering 100% errors
    (--workers 0)."""
    assert cli_main(["serve", str(graph_file), flag, "0"]) == 1
    assert flag in capsys.readouterr().err


def test_cli_rejects_negative_cache_size(graph_file, capsys):
    assert cli_main(["serve", str(graph_file), "--cache-size", "-1"]) == 1
    assert "--cache-size" in capsys.readouterr().err


def test_cli_fleet_requires_compact_backend(graph_file, capsys):
    """A multi-process fleet runs over a shared CSR snapshot, so
    --workers > 1 without --backend compact must fail with a clean
    pointer to the flag, not boot a half-configured server."""
    assert cli_main(["serve", str(graph_file), "--workers", "2"]) == 1
    assert "--backend compact" in capsys.readouterr().err


def test_cli_removes_ready_file_on_shutdown_and_restarts(graph_file,
                                                         tmp_path):
    """The ready file must disappear on shutdown -- a supervisor that
    polls it would otherwise route traffic at a dead server -- and a
    restart reusing the same path must become ready again."""
    proc, host, port = _spawn_server(graph_file, tmp_path)
    ready = tmp_path / "ready.txt"
    assert ready.exists()
    proc.send_signal(signal.SIGINT)
    proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert not ready.exists(), "stale ready file left after shutdown"

    # the restart path: same ready file, fresh server
    proc, host, port = _spawn_server(graph_file, tmp_path)
    try:
        with ServeClient(host, port) as client:
            assert client.rknn(5, k=2)["status"] == "ok"
    finally:
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert not ready.exists()
