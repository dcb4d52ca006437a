import json
from pathlib import Path

import pytest

from ncdef.algebra import AlgebraPresentation
from ncdef.massey import compute_hull
from ncdef.presets import RunOptions, load_preset, problem_from_json
from ncdef.yoneda import ExtBasis, ExtComputer


@pytest.fixture(scope="session")
def weyl():
    return load_preset("weyl2-simple4")


@pytest.fixture(scope="session")
def weyl_computer(weyl):
    return ExtComputer(weyl.bundle, RunOptions().ladder)


@pytest.fixture(scope="session")
def weyl_computed_basis(weyl, weyl_computer):
    basis = ExtBasis.computed(weyl_computer)
    basis.certify(weyl_computer)
    return basis


@pytest.fixture(scope="session")
def weyl_state(weyl):
    return compute_hull(weyl.preset_basis, RunOptions())


@pytest.fixture(scope="session")
def poly1():
    return load_preset("poly1-point")


@pytest.fixture(scope="session")
def poly1_state(poly1):
    return compute_hull(poly1.preset_basis,
                        RunOptions(max_order=6, stop_on_stabilized=False))


@pytest.fixture(scope="session")
def poly3():
    spec = Path(__file__).parent / "specs" / "poly3.json"
    return problem_from_json(json.loads(spec.read_text()))


@pytest.fixture(scope="session")
def poly3_computed_basis(poly3):
    computer = ExtComputer(poly3.bundle, RunOptions().ladder)
    basis = ExtBasis.computed(computer)
    basis.certify(computer)
    return basis


@pytest.fixture(scope="session")
def count_changing():
    """U(g) for [y, x] = x and z central: the rule y*x -> x*y + x drops a y."""
    return AlgebraPresentation(
        ["x", "y", "z"],
        [(("y", "x"), [(("x", "y"), 1), (("x",), 1)]),
         (("z", "x"), [(("x", "z"), 1)]), (("z", "y"), [(("y", "z"), 1)])])
