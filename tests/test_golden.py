"""Golden reports: a fresh ``ncdef run`` must reproduce each file byte for byte.

To regenerate after an intended output change, run the listed arguments with
``--out tests/golden/<name>`` and review the diff.
"""

from pathlib import Path

import pytest

from ncdef.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"

CASES = {
    "weyl2-simple4": ["--preset", "weyl2-simple4"],
    "weyl2-simple4-computed": ["--preset", "weyl2-simple4", "--computed-basis"],
    "weyl2-simple4-computed-b6": ["--preset", "weyl2-simple4", "--computed-basis",
                                  "--degree-bound", "6"],
    "weyl2-simple4-order6": ["--preset", "weyl2-simple4", "--no-early-stop",
                             "--max-order", "6"],
    "poly1-point": ["--preset", "poly1-point"],
    "poly1-point-order6": ["--preset", "poly1-point", "--no-early-stop",
                           "--max-order", "6"],
    "poly3": ["--spec", str(HERE / "specs" / "poly3.json")],
    "poly3-computed": ["--spec", str(HERE / "specs" / "poly3.json"), "--computed-basis"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden(name, tmp_path, capsys):
    assert main(["run", *CASES[name], "--out", str(tmp_path)]) == 0
    for filename in ("report.json", "presentation.txt"):
        fresh = (tmp_path / filename).read_bytes()
        assert fresh == (GOLDEN / name / filename).read_bytes(), filename
