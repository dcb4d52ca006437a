"""Mutated reports end in a documented exit code of ``verify``.

Hypothesis edits the weyl2-simple4 or the poly3 golden report once or twice
with the mutations of the problem-document fuzz (a junk value, a deleted
entry, a renamed key or an appended junk element) and runs ``verify`` in
process: the command exits 0, 2, 3 or 4 and no exception escapes ``main``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ncdef.cli import main
from test_document_fuzz import _mutate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

GOLDEN = Path(__file__).parent / "golden"
REPORTS = {name: json.loads((GOLDEN / name / "report.json").read_text())
           for name in ("weyl2-simple4", "poly3")}


def test_mutated_reports_exit_with_documented_codes(tmp_path_factory):
    path = tmp_path_factory.mktemp("report_fuzz") / "report.json"

    @hypothesis.settings(max_examples=150, database=None, deadline=None)
    @hypothesis.given(st.sampled_from(sorted(REPORTS)), st.randoms(use_true_random=False))
    def check(name, rng):
        path.write_text(json.dumps(_mutate(REPORTS[name], rng)))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", str(path)])
        assert code in (0, 2, 3, 4)

    check()
