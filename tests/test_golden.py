"""Golden reports: a fresh ``ncdef run`` must reproduce each file byte for byte.

To regenerate after an intended output change, run the listed arguments with
``--out tests/golden/<name>`` and review the diff.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from ncdef import algebra, cli, linalg, matrix_ring
from ncdef.cli import main
from ncdef.report import text_presentation

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
BENCH = HERE.parent / "perfbench"

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
    "poly2-point-p2": ["--spec", str(HERE / "specs" / "poly2-point-p2.json")],
    "poly2-point-p3": ["--spec", str(HERE / "specs" / "poly2-point-p3.json")],
    "poly3-point-p2": ["--spec", str(HERE / "specs" / "poly3-point-p2.json")],
}


@pytest.fixture
def coefficient_types(monkeypatch):
    """Record every coefficient that is not an int or a Fraction.

    Checks the vectors given to ``Echelon.add`` and the rows it stores, the
    terms of every ``AlgebraElement`` and the products of every truncated
    algebra, whose normal forms do not pass through ``Echelon``, where a
    float or a bool is recorded, and the documents given to
    ``canonical_json``, which print coefficients as strings and would print
    a float silently.
    """
    bad = []

    def check(values, where):
        bad.extend((where, c) for c in values if type(c) not in (int, Fraction))

    add = linalg.Echelon.add

    def checked_add(self, vec):
        check(vec.values(), "Echelon.add input")
        pivot = add(self, vec)
        if pivot is not None:
            check(self.rows[pivot].values(), "Echelon row")
        return pivot

    init = algebra.AlgebraElement.__init__

    def checked_init(self, pres, terms):
        check(terms.values(), "AlgebraElement")
        init(self, pres, terms)

    truncation = matrix_ring.FiniteDimPointedAlgebra.__init__

    def checked_truncation(self, p, basis, products, *args, **kwargs):
        for coords in products.values():
            check(coords.values(), "FiniteDimPointedAlgebra products")
        truncation(self, p, basis, products, *args, **kwargs)

    canonical_json = cli.canonical_json

    def checked_json(obj):
        stack = [obj]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, (list, tuple)):
                stack.extend(item)
            elif isinstance(item, float):
                bad.append(("canonical_json", item))
        return canonical_json(obj)

    monkeypatch.setattr(linalg.Echelon, "add", checked_add)
    monkeypatch.setattr(algebra.AlgebraElement, "__init__", checked_init)
    monkeypatch.setattr(matrix_ring.FiniteDimPointedAlgebra, "__init__", checked_truncation)
    monkeypatch.setattr(cli, "canonical_json", checked_json)
    return bad


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden(name, tmp_path, capsys, coefficient_types):
    assert main(["run", *CASES[name], "--out", str(tmp_path)]) == 0
    for filename in ("report.json", "presentation.txt"):
        fresh = (tmp_path / filename).read_bytes()
        assert fresh == (GOLDEN / name / filename).read_bytes(), filename
    assert not coefficient_types[:5]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_verifies(name, capsys):
    assert main(["verify", str(GOLDEN / name / "report.json")]) == 0
    assert "report verifies" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_presentation_is_rendered_from_the_report_alone(name):
    report = json.loads((GOLDEN / name / "report.json").read_text())
    assert text_presentation(report) == (GOLDEN / name / "presentation.txt").read_text()


# The benchmark's degree-bound-12 workloads, pinned by the digests it checks.
BOUND12 = {
    "weyl2-ext12": ["ext", "--preset", "weyl2-simple4", "--computed-basis",
                    "--degree-bound", "12", "--json"],
    "poly3-proj12/xyz": ["run", "--spec", str(BENCH / "poly3.json"),
                         "--degree-bound", "12"],
}


@pytest.mark.parametrize("key", sorted(BOUND12))
def test_bound12_output_matches_benchmark_digest(key, tmp_path, capsys):
    command = BOUND12[key]
    if command[0] == "run":
        assert main(command + ["--out", str(tmp_path)]) == 0
        output = (tmp_path / "report.json").read_bytes()
    else:
        assert main(command) == 0
        output = capsys.readouterr().out.encode()
    expected = json.loads((BENCH / "expected.json").read_text())[key]
    assert hashlib.sha256(output).hexdigest() == expected


def test_ext_lifts_nothing_and_prints_the_benchmark_digest(monkeypatch, capsys):
    # ext prints only dimensions: the computed basis's Hom-complex classes
    # are picked and checked, but no class is lifted to a Yoneda cochain
    from ncdef import checker, yoneda

    def refused(*args):
        raise AssertionError("ext lifted or solved")

    for module in (linalg, yoneda, checker):
        monkeypatch.setattr(module, "solve_sparse", refused)
    monkeypatch.setattr(yoneda.ExtComputer, "_lift_to_yoneda", refused)
    assert main(BOUND12["weyl2-ext12"]) == 0
    output = capsys.readouterr().out.encode()
    expected = json.loads((BENCH / "expected.json").read_text())["weyl2-ext12"]
    assert hashlib.sha256(output).hexdigest() == expected
