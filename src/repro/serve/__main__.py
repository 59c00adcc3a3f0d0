"""``python -m repro.serve``: replay a recorded request log against a
running server (see :func:`repro.serve.client.main`)."""

import sys

from repro.serve.client import main

if __name__ == "__main__":
    sys.exit(main())
