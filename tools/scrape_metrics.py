"""CI scrape step: validate a live server's observability surfaces.

Given a running server's address, the script

1. fetches HTTP ``GET /metrics`` (JSON) and checks the payload shape,
2. fetches ``GET /metrics?format=prometheus`` and validates the text
   exposition with the repo's own parser
   (:func:`repro.obs.metrics.parse_prometheus_text` -- no external
   ``promtool`` needed), and
3. runs one ``EXPLAIN`` statement over the protocol and writes the
   full response (plan + executed span tree) to ``--trace-out``, which
   the workflow uploads as an artifact.

Any missing sample, malformed exposition line or failed EXPLAIN exits
non-zero, failing the build::

    PYTHONPATH=src python tools/scrape_metrics.py \\
        --address 127.0.0.1:8750 --trace-out explain_trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import parse_prometheus_text, render_trace  # noqa: E402
from repro.serve.client import ServeClient, http_get, http_get_text  # noqa: E402

#: Samples every server must expose, whatever its mode.
REQUIRED_SAMPLES = (
    "repro_queries_served_total",
    "repro_mutations_applied_total",
    "repro_admission_admitted_total",
    "repro_drains_total",
    "repro_errors_total",
    "repro_live_workers",
    "repro_batch_seconds_count",
    'repro_batch_seconds_bucket{le="+Inf"}',
)

#: The statement whose trace the workflow archives.
EXPLAIN_STATEMENT = "EXPLAIN SELECT * FROM rknn(query=17, k=2)"


def scrape(host: str, port: int, trace_out: str | None) -> int:
    """Validate one server's /metrics surfaces; return failure count."""
    failures = 0

    body = http_get(host, port, "/metrics")
    for key in ("backend", "mode", "queries_served", "latency"):
        if key not in body:
            print(f"FAIL  JSON /metrics missing {key!r}")
            failures += 1
    print(f"ok    JSON /metrics: backend={body.get('backend')} "
          f"mode={body.get('mode')} "
          f"queries_served={body.get('queries_served')}")

    text = http_get_text(host, port, "/metrics?format=prometheus")
    try:
        samples = parse_prometheus_text(text)
    except ValueError as exc:
        print(f"FAIL  prometheus exposition does not parse: {exc}")
        return failures + 1
    print(f"ok    prometheus exposition parses: {len(samples)} samples")
    for name in REQUIRED_SAMPLES:
        if name not in samples:
            print(f"FAIL  exposition missing sample {name!r}")
            failures += 1
    inf = samples.get('repro_batch_seconds_bucket{le="+Inf"}')
    count = samples.get("repro_batch_seconds_count")
    if inf != count:
        print(f"FAIL  +Inf bucket ({inf}) != histogram count ({count})")
        failures += 1

    with ServeClient(host, port) as client:
        response = client.request({"op": "query",
                                   "statement": EXPLAIN_STATEMENT})
    if response.get("status") != "ok" or not response.get("explain"):
        print(f"FAIL  EXPLAIN did not answer with a plan: {response}")
        failures += 1
    else:
        spans = response["trace"]["spans"]
        print(f"ok    EXPLAIN answered: {len(spans)} spans, "
              f"method={response['plan']['method']}")
        for line in render_trace(response["trace"]):
            print(f"      {line}")
        if trace_out:
            Path(trace_out).write_text(
                json.dumps(response, indent=2, sort_keys=True) + "\n"
            )
            print(f"ok    wrote EXPLAIN trace to {trace_out}")
    return failures


def main(argv=None) -> int:
    """CLI entry point (see module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--address", required=True, metavar="HOST:PORT",
                        help="running server, e.g. 127.0.0.1:8750")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the captured EXPLAIN response here")
    args = parser.parse_args(argv)
    host, _, port = args.address.rpartition(":")
    failures = scrape(host, int(port), args.trace_out)
    if failures:
        print(f"{failures} scrape failure(s)")
        return 1
    print("metrics scrape clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
