"""``python -m repro`` — paper report (default) or the serving driver.

* ``python -m repro`` / ``python -m repro report`` — regenerate the
  paper's evaluation as a text report;
* ``python -m repro serve --model tiny --requests 64 [--config
  FILE_OR_PRESET] [--set PATH=VALUE ...]`` — replay a synthetic
  multi-tenant trace through the private-inference server and print the
  serving metrics (see :mod:`repro.cli`).
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
