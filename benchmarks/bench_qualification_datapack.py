"""§IV / qualification — ECSS datapack completeness and TRL assessment.

Runs a compact but genuine BL1 qualification campaign (unit, integration
and validation levels with fault injection) on the executable platform,
generates the mandatory ECSS document set and assesses the reached TRL —
the HERMES project objective is TRL 6 / ECSS DAL-B (paper abstract, §IV).
The campaign itself lives in :mod:`repro.core.bl1_qualification`, which
``repro qualify`` runs too.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import save_table, save_text

from repro.core import MANDATORY_DOCUMENTS
from repro.core.bl1_qualification import run_qualification


def test_qualification_datapack(benchmark):
    table, report, trl, pack = benchmark.pedantic(run_qualification,
                                                  rounds=1, iterations=1)
    save_table(table, "qualification_datapack")
    save_text("\n\n".join(pack.documents[d] for d in MANDATORY_DOCUMENTS),
              "qualification_documents")
    assert report.all_passed
    assert report.requirement_coverage() == 1.0
    assert trl.level == 6
    assert pack.complete
    assert "SAR" in pack.documents
    assert "0 error(s)" in pack.documents["SAR"]
    assert "SVR" in pack.documents
    assert "0 error(s)" in pack.documents["SVR"]
    assert "all analyses reached a fixpoint" in pack.documents["SVR"]
    assert "TEL" in pack.documents
    assert "Spans per layer:" in pack.documents["TEL"]
