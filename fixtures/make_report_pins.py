"""Regenerate the pins of the criterion 8 and 9 reports.

Writes ``fixtures/report_pins.json``: each report's sha256 and values, as
``tests/pins.py`` defines them, with the NumPy version and BLAS build they
were computed with.  It trains both engines at desk scale, which takes
about a minute.  Run from the repo root:

    PYTHONPATH=src python3 fixtures/make_report_pins.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import pins  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    meta, splits = pins.desk_data(tmp)
    out = {
        **pins.platform(),
        "criterion_08": pins.pin(pins.corruption_report(meta, splits)),
        "criterion_09": pins.pin(pins.pseudo_report(meta, splits)),
    }
pins.PINS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
print(f"wrote {pins.PINS}")
for name in ("criterion_08", "criterion_09"):
    print(f"{name}: sha256 {out[name]['sha256'][:16]}")
