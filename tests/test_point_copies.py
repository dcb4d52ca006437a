"""p copies of a point of k[x1, ..., xn]: A's rules in generic p x p matrices.

For the point k of a commutative polynomial ring A, Ext^1(k, k) has one
class per variable, and the hull of the family (k, ..., k) of p copies is
the free matric ring on p x p generic matrices X_g, one per generator g,
modulo the entries of each rule of A written in those matrices.  Each entry
(i, j) of X_g is the arrow x<i>_<j>_<a> for one index a of g, the same for
every pair.  The oracle compares the golden reports with these entries, up
to a diagonal rescaling of the arrows and relations, one relabelling of the
arrow indices by the generators, and the order of the relations of a type.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from ncdef.algebra import AlgebraPresentation
from ncdef.matrix_ring import MatricPoly, Monomial, RelTag
from rescaling import match_up_to_rescaling

HERE = Path(__file__).parent
CASES = ["poly2-point-p2", "poly2-point-p3", "poly3-point-p2"]


def _matrix_entries(word, index, p, i, j):
    """Entry (i, j) of the product of the generic matrices of ``word``."""
    out = {}
    for inner in itertools.product(range(1, p + 1), repeat=len(word) - 1):
        path = (i,) + inner + (j,)
        arrows = [(path[k], path[k + 1], index[g]) for k, g in enumerate(word)]
        m = Monomial.from_arrows(arrows)
        out[m] = out.get(m, 0) + 1
    return out


def _rule_entries(pres, index, p, i, j):
    """Entry (i, j) of lhs - rhs, for each rule of A in generic matrices."""
    out = []
    for lhs, rhs in pres.rules.items():
        terms = _matrix_entries(lhs, index, p, i, j)
        for w, c in rhs:
            for m, v in _matrix_entries(w, index, p, i, j).items():
                terms[m] = terms.get(m, 0) - c * v
        out.append(MatricPoly((i, j), terms))
    return out


def _report_relations(report):
    """{type: [MatricPoly]} of the report's relations, in their order."""
    out = {}
    for rel in report["relations"]:
        typ = tuple(rel["type"])
        terms = {Monomial.from_arrows([tuple(a) for a in t["monomial"]]):
                 Fraction(t["coeff"]) for t in rel["terms"]}
        out.setdefault(typ, []).append(MatricPoly(typ, terms))
    return out


def _matches(pres, p, index, found, arrows):
    """Whether the report's relations are the oracle's after rescaling, each
    report relation paired with the oracle entry of the same monomials."""
    ours, theirs = {}, {}
    for (i, j), rels in found.items():
        oracle = _rule_entries(pres, index, p, i, j)
        if len(oracle) != len(rels):
            return False
        for l, rel in enumerate(rels, start=1):
            same = [f for f in oracle if set(f.terms) == set(rel.terms)]
            if len(same) != 1:
                return False
            ours[RelTag(i, j, l)], theirs[RelTag(i, j, l)] = same[0], rel
    return match_up_to_rescaling(ours, theirs, arrows) is not None


@pytest.mark.parametrize("name", CASES)
def test_point_copies_match_the_generic_matrix_oracle(name):
    spec = json.loads((HERE / "specs" / (name + ".json")).read_text())
    report = json.loads((HERE / "golden" / name / "report.json").read_text())
    pres = AlgebraPresentation.from_json(spec["algebra"])
    p, n = len(spec["modules"]), len(pres.generators)
    assert report["ext_table"] == {"ext1": [[n] * p] * p,
                                   "ext2": [[len(pres.rules)] * p] * p}
    assert report["stabilized"] is True and report["stabilized_at"] == 2
    found = _report_relations(report)
    assert sorted(found) == [(i, j) for i in range(1, p + 1) for j in range(1, p + 1)]
    arrows = [(i, j, a) for i in range(1, p + 1) for j in range(1, p + 1)
              for a in range(1, n + 1)]
    assert any(_matches(pres, p, dict(zip(pres.generators, perm)), found, arrows)
               for perm in itertools.permutations(range(1, n + 1)))


def test_oracle_rejects_a_wrong_relation():
    name = "poly2-point-p2"
    spec = json.loads((HERE / "specs" / (name + ".json")).read_text())
    report = json.loads((HERE / "golden" / name / "report.json").read_text())
    pres = AlgebraPresentation.from_json(spec["algebra"])
    found = _report_relations(report)
    arrows = [(i, j, a) for i in (1, 2) for j in (1, 2) for a in (1, 2)]
    for perm in itertools.permutations((1, 2)):
        assert _matches(pres, 2, dict(zip(pres.generators, perm)), found, arrows)
    # flip the sign of x1_1_1*x1_1_2 in entry (1, 1) of XY - YX: its partner
    # x1_1_2*x1_1_1 has the same arrows, so no rescaling repairs it
    terms = dict(found[(1, 1)][0].terms)
    m = Monomial.from_arrows([(1, 1, 1), (1, 1, 2)])
    terms[m] = -terms[m]
    found[(1, 1)][0] = MatricPoly((1, 1), terms)
    for perm in itertools.permutations((1, 2)):
        assert not _matches(pres, 2, dict(zip(pres.generators, perm)), found, arrows)
