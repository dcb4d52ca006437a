"""The shipped presets are spec documents; they equal the hand-written builders.

The builders below construct the presentations, resolutions and shipped Ext
bases directly in Python, as the package once did.  They stay here as
references: each preset, built from its document by the same path as a
``--spec`` file, must give the same generators, rules (in order, with the
same coefficient types), weights, resolutions and bases, in the same order.
"""

import pytest

from ncdef.algebra import AlgebraPresentation, preset_presentation
from ncdef.linalg import exact
from ncdef.presets import (SCHEMA_PROBLEM, RunOptions, _cochain_from_mats,
                           load_preset)
from ncdef.yoneda import FreeResolution, ResolutionBundle


def _commutation_rules(order, brackets):
    """Rules sorting generators into `order`, with [a,b] = c constants."""
    rules = []
    idx = {g: k for k, g in enumerate(order)}
    for a in order:
        for b in order:
            if idx[a] > idx[b]:
                # a*b -> b*a + [a,b]
                rhs = [((b, a), 1)]
                c = brackets.get((a, b), 0)
                if c:
                    rhs.append(((), exact(c)))
                rules.append(((a, b), rhs))
    return rules


def _reference_presentation(name):
    if name == "weyl2":
        gens = ["x", "y", "Dx", "Dy"]
        return AlgebraPresentation(
            gens, _commutation_rules(gens, {("Dx", "x"): 1, ("Dy", "y"): 1}))
    if name == "weyl1":
        gens = ["x", "Dx"]
        return AlgebraPresentation(gens, _commutation_rules(gens, {("Dx", "x"): 1}))
    assert name == "poly1"
    return AlgebraPresentation(["x"], [])


def _reference_weyl2_simple4():
    """(presentation, bundle, ext1, ext2) of weyl2-simple4."""
    pres = _reference_presentation("weyl2")
    data = [
        (["Dx", "Dy"], [[["Dx"], ["Dy"]], [["Dy", "-Dx"]]]),
        (["Dx", "y"], [[["Dx"], ["y"]], [["y", "-Dx"]]]),
        (["x", "Dy"], [[["x"], ["Dy"]], [["Dy", "-x"]]]),
        (["x", "y"], [[["x"], ["y"]], [["y", "-x"]]]),
    ]
    bundle = ResolutionBundle(pres, [FreeResolution(pres, ideal, [1, 2, 1], diffs)
                                     for ideal, diffs in data])
    second_slot = [[["0"], ["1"]], [["1", "0"]]]
    first_slot = [[["1"], ["0"]], [["0", "-1"]]]
    ext1 = {(i, j): [] for i in range(1, 5) for j in range(1, 5)}
    for (i, j) in [(1, 2), (2, 1), (3, 4), (4, 3)]:
        ext1[(i, j)] = [_cochain_from_mats(bundle, 1, i, j, second_slot)]
    for (i, j) in [(1, 3), (3, 1), (2, 4), (4, 2)]:
        ext1[(i, j)] = [_cochain_from_mats(bundle, 1, i, j, first_slot)]
    ext2 = {(i, j): [] for i in range(1, 5) for j in range(1, 5)}
    for (i, j) in [(1, 4), (2, 3), (3, 2), (4, 1)]:
        ext2[(i, j)] = [_cochain_from_mats(bundle, 2, i, j, [[["1"]]])]
    return pres, bundle, ext1, ext2


def _reference_poly1_point():
    pres = _reference_presentation("poly1")
    bundle = ResolutionBundle(pres, [FreeResolution(pres, ["x"], [1, 1], [[["x"]]])])
    ext1 = {(1, 1): [_cochain_from_mats(bundle, 1, 1, 1, [[["1"]]])]}
    return pres, bundle, ext1, {(1, 1): []}


def _terms(element):
    return [(w, c, type(c)) for w, c in element.terms.items()]


def _mat(mat):
    return (mat.nrows, mat.ncols,
            [(rc, _terms(v)) for rc, v in mat.entries.items()])


def _presentation(pres):
    return (pres.generators,
            [(lhs, [(w, c, type(c)) for w, c in rhs]) for lhs, rhs in pres.rules.items()],
            list(pres.weights.items()), pres.step_budget)


def _resolutions(bundle):
    return [(res.module.ideal_gens, res.ranks, [_mat(d) for d in res.diffs])
            for res in bundle.resolutions.values()]


def _table(table):
    return [(key, [(phi.degree, phi.type, [_mat(m) for m in phi.mats]) for phi in reps])
            for key, reps in table.items()]


@pytest.mark.parametrize("name", ["weyl2", "weyl1", "poly1"])
def test_preset_algebras_equal_their_reference_builders(name):
    assert _presentation(preset_presentation(name)) == \
        _presentation(_reference_presentation(name))


@pytest.mark.parametrize("name, reference", [
    ("weyl2-simple4", _reference_weyl2_simple4),
    ("poly1-point", _reference_poly1_point),
])
def test_presets_equal_their_reference_builders(name, reference):
    pres, bundle, ext1, ext2 = reference()
    problem = load_preset(name)
    assert problem.name == name
    assert _presentation(problem.pres) == _presentation(pres)
    assert _resolutions(problem.bundle) == _resolutions(bundle)
    assert problem.p == bundle.p
    basis = problem.preset_basis
    assert _table(basis.ext1) == _table(ext1)
    assert _table(basis.ext2) == _table(ext2)
    assert basis.source == "preset"
    assert problem.spec is None
    assert problem.to_json() == {"schema": SCHEMA_PROBLEM, "preset": name,
                                 "options": RunOptions()._asdict()}
    options = RunOptions(max_order=3)
    assert load_preset(name, options).to_json()["options"] == options._asdict()
    # a problem is a record: nothing assigns to it
    with pytest.raises(AttributeError):
        problem.options = options
