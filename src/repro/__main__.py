"""``python -m repro`` — the operations CLI (``stats`` / ``trace`` /
``serve`` / ``top`` / ``alerts`` / ``record`` / ``matrix``).

Delegates to :mod:`repro.observability.cli`; the ``repro-experiments``
figure runner stays its own entry point
(:mod:`repro.experiments.cli`).
"""

import sys

from repro.observability.cli import main

if __name__ == "__main__":
    sys.exit(main())
