"""Problem specifications: algebra, module family, resolutions, options.

Two presets ship: ``weyl2-simple4`` (four simple holonomic modules over the
second Weyl algebra, with hand-picked cocycle representatives) and
``poly1-point`` (the point module over k[x], the unobstructed smoke test).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .algebra import AlgebraPresentation, preset_presentation
from .errors import ValidationError
from .yoneda import Cochain, ExtBasis, FreeResolution, Mat, ResolutionBundle

SCHEMA_PROBLEM = "ncdef-problem/1"


@dataclass
class RunOptions:
    degree_bound: int = 4
    retry_step: int = 2
    max_bound: int = 12
    max_order: int = 5
    verify_cutoff: int | None = None
    stop_on_stabilized: bool = True
    use_computed_basis: bool = False

    def to_json(self):
        return asdict(self)

    @staticmethod
    def from_json(data):
        opts = RunOptions()
        for key, value in (data or {}).items():
            if not hasattr(opts, key):
                raise ValidationError("unknown option %r" % key)
            setattr(opts, key, value)
        for key in ("degree_bound", "retry_step", "max_bound", "max_order"):
            if getattr(opts, key) <= 0:
                raise ValidationError("option %s must be positive" % key)
        return opts


class Problem:
    """A module family with fixed resolutions and optional shipped basis."""

    def __init__(self, name, pres, bundle, preset_basis=None, options=None,
                 module_names=None, spec_json=None):
        self.name = name
        self.pres = pres
        self.bundle = bundle
        self.preset_basis = preset_basis
        self.options = options or RunOptions()
        self.module_names = module_names or ["M%d" % i for i in
                                             range(1, bundle.p + 1)]
        self._spec_json = spec_json

    @property
    def p(self):
        return self.bundle.p

    def to_json(self):
        if self._spec_json is not None:
            return self._spec_json
        return {"schema": SCHEMA_PROBLEM, "preset": self.name,
                "options": self.options.to_json()}


def _cochain_from_mats(bundle, degree, i, j, mats_rows):
    mats = []
    for m, rows in enumerate(mats_rows):
        nrows = bundle.res(j).rank(m + degree)
        ncols = bundle.res(i).rank(m)
        if rows is None or nrows == 0 or ncols == 0:
            # zero-rank components serialize as empty lists and lose their
            # shape; rebuild them from the resolution ranks
            mats.append(Mat(nrows, ncols))
        else:
            mats.append(Mat.from_rows(rows, bundle.pres))
    while len(mats) < bundle.mmax - degree + 1:
        m = len(mats)
        mats.append(Mat(bundle.res(j).rank(m + degree), bundle.res(i).rank(m)))
    return Cochain(bundle, degree, i, j, mats)


def _weyl2_simple4():
    pres = preset_presentation("weyl2")
    data = [
        (["Dx", "Dy"], [[["Dx"], ["Dy"]], [["Dy", "-Dx"]]]),
        (["Dx", "y"], [[["Dx"], ["y"]], [["y", "-Dx"]]]),
        (["x", "Dy"], [[["x"], ["Dy"]], [["Dy", "-x"]]]),
        (["x", "y"], [[["x"], ["y"]], [["y", "-x"]]]),
    ]
    resolutions = [FreeResolution(pres, ideal, [1, 2, 1], diffs, name="M%d" % k)
                   for k, (ideal, diffs) in enumerate(data, start=1)]
    bundle = ResolutionBundle(pres, resolutions)
    second_slot = [[["0"], ["1"]], [["1", "0"]]]
    first_slot = [[["1"], ["0"]], [["0", "-1"]]]
    ext1 = {}
    for i in range(1, 5):
        for j in range(1, 5):
            ext1[(i, j)] = []
    for (i, j) in [(1, 2), (2, 1), (3, 4), (4, 3)]:
        ext1[(i, j)] = [_cochain_from_mats(bundle, 1, i, j, second_slot)]
    for (i, j) in [(1, 3), (3, 1), (2, 4), (4, 2)]:
        ext1[(i, j)] = [_cochain_from_mats(bundle, 1, i, j, first_slot)]
    ext2 = {}
    for i in range(1, 5):
        for j in range(1, 5):
            ext2[(i, j)] = []
    for (i, j) in [(1, 4), (2, 3), (3, 2), (4, 1)]:
        ext2[(i, j)] = [_cochain_from_mats(bundle, 2, i, j, [[["1"]]])]
    basis = ExtBasis(bundle, ext1, ext2, bound=4, source="preset")
    return Problem("weyl2-simple4", pres, bundle, preset_basis=basis)


def _poly1_point():
    pres = preset_presentation("poly1")
    res = FreeResolution(pres, ["x"], [1, 1], [[["x"]]], name="M1")
    bundle = ResolutionBundle(pres, [res])
    ext1 = {(1, 1): [_cochain_from_mats(bundle, 1, 1, 1, [[["1"]]])]}
    ext2 = {(1, 1): []}
    basis = ExtBasis(bundle, ext1, ext2, bound=4, source="preset")
    return Problem("poly1-point", pres, bundle, preset_basis=basis)


_PRESETS = {
    "weyl2-simple4": _weyl2_simple4,
    "poly1-point": _poly1_point,
}


def preset_names():
    return sorted(_PRESETS)


def load_preset(name, options=None):
    if name not in _PRESETS:
        raise ValidationError("unknown preset %r (have: %s)"
                              % (name, ", ".join(preset_names())))
    problem = _PRESETS[name]()
    if options is not None:
        problem.options = options
    return problem


def problem_from_json(data, options=None):
    """Build a problem from a spec document (see README for the schema)."""
    if not isinstance(data, dict):
        raise ValidationError("problem spec must be a JSON object")
    if data.get("schema") != SCHEMA_PROBLEM:
        raise ValidationError("expected schema %r" % SCHEMA_PROBLEM)
    opts = options or RunOptions.from_json(data.get("options"))
    if "preset" in data:
        return load_preset(data["preset"], opts)
    algebra = data.get("algebra")
    if isinstance(algebra, str):
        pres = preset_presentation(algebra)
    elif isinstance(algebra, dict):
        pres = AlgebraPresentation.from_json(algebra)
    else:
        raise ValidationError("problem spec needs an 'algebra' entry")
    modules = data.get("modules")
    if not modules:
        raise ValidationError("problem spec needs a nonempty 'modules' list")
    resolutions = []
    names = []
    for k, mod in enumerate(modules, start=1):
        name = mod.get("name", "M%d" % k)
        names.append(name)
        resolutions.append(FreeResolution(pres, mod["ideal"], mod["ranks"],
                                          mod["diffs"], name=name))
    bundle = ResolutionBundle(pres, resolutions)
    preset_basis = None
    if "ext_basis" in data:
        preset_basis = ext_basis_from_json(bundle, data["ext_basis"])
    return Problem(data.get("name", "custom"), pres, bundle,
                   preset_basis=preset_basis, options=opts,
                   module_names=names, spec_json=data)


def ext_basis_from_json(bundle, data):
    ext1 = {(i, j): [] for i in range(1, bundle.p + 1)
            for j in range(1, bundle.p + 1)}
    ext2 = {(i, j): [] for i in range(1, bundle.p + 1)
            for j in range(1, bundle.p + 1)}
    for degree, store in ((1, ext1), (2, ext2)):
        for key, reps in (data.get("ext%d" % degree) or {}).items():
            i, j = (int(t) for t in key.split(","))
            store[(i, j)] = [_cochain_from_mats(bundle, degree, i, j, rep["mats"])
                             for rep in reps]
    return ExtBasis(bundle, ext1, ext2, bound=data.get("bound", 4),
                    source="preset")


def cochain_to_json(phi):
    from .algebra import format_element
    return {
        "degree": phi.degree,
        "type": [phi.i, phi.j],
        "mats": [[[format_element(mat.get(r, c)) if mat.get(r, c) else "0"
                   for c in range(mat.ncols)] for r in range(mat.nrows)]
                 for mat in phi.mats],
    }


def cochain_from_json(bundle, data):
    i, j = data["type"]
    return _cochain_from_mats(bundle, data["degree"], i, j, data["mats"])
