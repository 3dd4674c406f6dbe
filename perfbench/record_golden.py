"""Record the quantum check list (names, order, tolerances, pass flags).

Usage: ``python3 perfbench/record_golden.py`` from the root of a checkout.
Writes ``perfbench/golden/checks-n<N>.json`` for the truncation levels the
workloads use.  Residuals are left out on purpose: level-block or other
reorganised arithmetic may move them at round-off level.  Run it only on a
commit whose check list is the accepted reference.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sphere_sga as sga  # noqa: E402

for n in (3, 6, 7):
    report = sga.run_suite(ops=sga.OperatorSet.build(sga.orthonormalize(n)))
    rows = [[c.name, repr(float(c.tolerance)), bool(c.passed)] for c in report.checks]
    text = "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n"
    (HERE / "golden" / f"checks-n{n}.json").write_text(text)
    print(f"n={n}: {len(rows)} checks, overall {'PASS' if report.overall_passed else 'FAIL'}")
