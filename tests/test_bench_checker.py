"""The benchmark checker reads the saturation verdict's tolerances when it is imported.

``bench/checker.py`` takes FI_REL and P_TOL from ``metrology.Thresholds``, so
removing or renaming that class, or letting its defaults drift from the
tolerance table, breaks every benchmark run. The file is compiled from its
source here, so nothing is written under ``bench/``.
"""

import types
from pathlib import Path

from loccfisher import tensor

CHECKER = Path(__file__).resolve().parents[1] / "bench" / "checker.py"


def test_checker_tolerances_are_the_table_entries():
    module = types.ModuleType("checker")
    exec(compile(CHECKER.read_text(), str(CHECKER), "exec"), module.__dict__)
    assert module.FI_REL == tensor.FI_REL
    assert module.P_TOL == tensor.P_TOL
