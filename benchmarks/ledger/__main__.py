"""``python3 benchmarks/ledger/__main__.py`` (or ``python -m benchmarks.ledger``)."""

import time

_T0 = time.process_time()  # the set-up clock: nothing of the program is imported yet

import os  # noqa: E402
import sys  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_ROOT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"ledger: no program to measure: {_SRC}/repro is missing")
for path in (_SRC, _ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.ledger.cli import main  # noqa: E402

sys.exit(main(_T0))
