"""Problem specifications: algebra, module family, resolutions, options.

``_build_problem`` makes every ``Problem`` from a spec document (see
README): its ``algebra``, ``modules`` and optional ``ext_basis``.  The
shipped presets are such documents: ``weyl2-simple4`` (four simple holonomic
modules over the second Weyl algebra, with hand-picked cocycle
representatives) and ``poly1-point`` (the point module over k[x], the
unobstructed smoke test).  ``RunOptions`` and ``Problem`` are namedtuples; a
spec's options are checked against ``RunOptions``' declared fields, each of
the kind of its default.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AlgebraPresentation, check_keys, format_element, preset_presentation
from .errors import ShapeMismatch, ValidationError
from .yoneda import Cochain, ExtBasis, FreeResolution, Mat, ResolutionBundle

SCHEMA_PROBLEM = "ncdef-problem/1"


class RunOptions(namedtuple("RunOptions", [
        "degree_bound", "retry_step", "max_bound", "max_order",
        "verify_cutoff", "stop_on_stabilized", "use_computed_basis"],
        defaults=[4, 2, 12, 5, None, True, False])):
    """Run options; each option's kind is that of its default: a positive
    integer, an optional positive integer (default None) or a bool."""

    __slots__ = ()

    @property
    def ladder(self):
        """The degree bounds of every bounded solve, each tried once: degree_bound,
        degree_bound + retry_step, ..., capped at max(degree_bound, max_bound)."""
        if self.retry_step < 1:
            raise ValidationError("retry_step must be at least 1, got %r"
                                  % (self.retry_step,))
        cap = max(self.degree_bound, self.max_bound)
        return tuple(range(self.degree_bound, cap, self.retry_step)) + (cap,)

    @staticmethod
    def from_json(data):
        if not isinstance(data, dict):
            raise ValidationError("options must be a JSON object")
        for key in data:
            if key not in RunOptions._fields:
                raise ValidationError("unknown option %r" % key)
        opts = RunOptions(**data)
        for key, default in RunOptions._field_defaults.items():
            value = getattr(opts, key)
            if isinstance(default, bool):
                if type(value) is not bool:
                    raise ValidationError("option %s must be true or false" % key)
            elif not (type(value) is int and value > 0
                      or value is None and default is None):
                raise ValidationError("option %s must be a positive integer, "
                                      "got %r" % (key, value))
        return opts


class Problem(namedtuple("Problem", [
        "name", "pres", "bundle", "preset_basis", "options", "spec"])):
    """A module family with fixed resolutions and optional shipped basis;
    ``spec`` is the spec document it was read from, None for a preset."""

    __slots__ = ()

    @property
    def p(self):
        return self.bundle.p

    def to_json(self):
        if self.spec is not None:
            return self.spec
        return {"schema": SCHEMA_PROBLEM, "preset": self.name,
                "options": self.options._asdict()}


def _cochain_from_mats(bundle, degree, i, j, mats_rows):
    mats = []
    for m in range(max(len(mats_rows), bundle.mmax - degree + 1)):
        rows = mats_rows[m] if m < len(mats_rows) else None
        shape = bundle.res(j).rank(m + degree), bundle.res(i).rank(m)
        mat = Mat(*shape) if rows is None else Mat.from_rows(rows, bundle.pres)
        # zero-rank components serialize as empty lists and lose their shape;
        # rebuild them, and missing ones, from the resolution ranks
        mats.append(Mat(*shape) if 0 in shape and mat.is_zero() else mat)
    return Cochain(bundle, degree, i, j, mats)


def read_cochain(bundle, degree, i, j, mats, what):
    """The cochain of type (i, j) written as JSON matrices ``mats``: one entry
    per component, each null or a list of rows of element strings.  A
    malformed or misshapen entry raises ValidationError naming ``what``."""
    if not isinstance(mats, list):
        raise ValidationError("malformed %s: matrices must be a list" % what)
    try:
        return _cochain_from_mats(bundle, degree, i, j, mats)
    except (ShapeMismatch, ValidationError) as exc:
        raise ValidationError("malformed %s: %s" % (what, exc))


# Ext^1 representatives of weyl2-simple4: 1 on the first or on the second
# generator of L_1 = A^2, with the component above it that makes a cocycle.
_FIRST_SLOT = [[["1"], ["0"]], [["0", "-1"]]]
_SECOND_SLOT = [[["0"], ["1"]], [["1", "0"]]]

_PRESETS = {
    "weyl2-simple4": {
        "algebra": "weyl2",
        "modules": [
            {"ideal": ["Dx", "Dy"], "ranks": [1, 2, 1],
             "diffs": [[["Dx"], ["Dy"]], [["Dy", "-Dx"]]]},
            {"ideal": ["Dx", "y"], "ranks": [1, 2, 1],
             "diffs": [[["Dx"], ["y"]], [["y", "-Dx"]]]},
            {"ideal": ["x", "Dy"], "ranks": [1, 2, 1],
             "diffs": [[["x"], ["Dy"]], [["Dy", "-x"]]]},
            {"ideal": ["x", "y"], "ranks": [1, 2, 1],
             "diffs": [[["x"], ["y"]], [["y", "-x"]]]},
        ],
        "ext_basis": {
            "ext1": {"1,2": [{"mats": _SECOND_SLOT}], "2,1": [{"mats": _SECOND_SLOT}],
                     "3,4": [{"mats": _SECOND_SLOT}], "4,3": [{"mats": _SECOND_SLOT}],
                     "1,3": [{"mats": _FIRST_SLOT}], "3,1": [{"mats": _FIRST_SLOT}],
                     "2,4": [{"mats": _FIRST_SLOT}], "4,2": [{"mats": _FIRST_SLOT}]},
            "ext2": {"1,4": [{"mats": [[["1"]]]}], "2,3": [{"mats": [[["1"]]]}],
                     "3,2": [{"mats": [[["1"]]]}], "4,1": [{"mats": [[["1"]]]}]},
        },
    },
    "poly1-point": {
        "algebra": "poly1",
        "modules": [{"ideal": ["x"], "ranks": [1, 1], "diffs": [[["x"]]]}],
        "ext_basis": {"ext1": {"1,1": [{"mats": [[["1"]]]}]}},
    },
}


def preset_names():
    return sorted(_PRESETS)


def load_preset(name, options=None):
    if not isinstance(name, str) or name not in _PRESETS:
        raise ValidationError("unknown preset %r (have: %s)"
                              % (name, ", ".join(preset_names())))
    return _build_problem(name, _PRESETS[name], options or RunOptions())


def problem_from_json(data, options=None):
    """Build a problem from a spec document (see README for the schema)."""
    if not isinstance(data, dict):
        raise ValidationError("problem spec must be a JSON object")
    if data.get("schema") != SCHEMA_PROBLEM:
        raise ValidationError("expected schema %r" % SCHEMA_PROBLEM)
    body = ["preset"] if "preset" in data else ["algebra", "modules", "ext_basis"]
    check_keys(data, ["schema", "name", "options"] + body, "problem")
    opts = options or RunOptions.from_json(data.get("options") or {})
    if "preset" in data:
        return load_preset(data["preset"], opts)
    return _build_problem(problem_name(data), data, opts, spec=data)


def problem_name(data):
    return data["preset"] if "preset" in data else data.get("name", "custom")


def _build_problem(name, doc, options, spec=None):
    """The problem of a document's algebra, modules and optional ext_basis."""
    algebra = doc.get("algebra")
    if isinstance(algebra, str):
        pres = preset_presentation(algebra)
    elif isinstance(algebra, dict):
        pres = AlgebraPresentation.from_json(algebra)
    else:
        raise ValidationError("problem spec needs an 'algebra' entry")
    modules = doc.get("modules")
    if not (modules and isinstance(modules, list)):
        raise ValidationError("problem spec needs a nonempty 'modules' list")
    resolutions = []
    for k, mod in enumerate(modules, start=1):
        if not isinstance(mod, dict) or not {"ideal", "ranks", "diffs"} <= set(mod):
            raise ValidationError("module %d needs 'ideal', 'ranks' and 'diffs'" % k)
        check_keys(mod, ("name", "ideal", "ranks", "diffs"), "module %d" % k)
        ideal, ranks, diffs = mod["ideal"], mod["ranks"], mod["diffs"]
        if not (isinstance(ideal, list) and all(isinstance(g, str) for g in ideal)):
            raise ValidationError("module %d 'ideal' must be a list of generator "
                                  "names" % k)
        if not (isinstance(ranks, list)
                and all(type(r) is int and r >= 0 for r in ranks)):
            raise ValidationError("module %d 'ranks' must be a list of "
                                  "nonnegative integers" % k)
        if not isinstance(diffs, list):
            raise ValidationError("module %d 'diffs' must be a list of matrices" % k)
        resolutions.append(FreeResolution(pres, ideal, ranks, diffs))
    bundle = ResolutionBundle(pres, resolutions)
    preset_basis = None
    if "ext_basis" in doc:
        preset_basis = ext_basis_from_json(bundle, doc["ext_basis"])
    return Problem(name, pres, bundle, preset_basis, options, spec)


def ext_basis_from_json(bundle, data):
    """The spec's ``ext_basis``: {"ext1"/"ext2": {"i,j": [{"mats": ...}]}}."""
    p = bundle.p
    ext1 = {(i, j): [] for i in range(1, p + 1) for j in range(1, p + 1)}
    ext2 = {(i, j): [] for i in range(1, p + 1) for j in range(1, p + 1)}
    if not isinstance(data, dict):
        raise ValidationError("spec ext_basis must be a JSON object")
    for degree, store in ((1, ext1), (2, ext2)):
        name = "ext%d" % degree
        table = data.get(name) or {}
        if not isinstance(table, dict):
            raise ValidationError("spec ext_basis %s must be a JSON object" % name)
        for key, reps in table.items():
            try:
                i, j = (int(t) for t in key.split(","))
            except ValueError:
                i = j = 0
            what = "spec ext_basis %s entry %r" % (name, key)
            if not (1 <= i <= p and 1 <= j <= p and isinstance(reps, list)
                    and all(isinstance(rep, dict) for rep in reps)):
                raise ValidationError("malformed %s: %r" % (what, reps))
            store[(i, j)] = [read_cochain(bundle, degree, i, j, rep.get("mats"), what)
                             for rep in reps]
    return ExtBasis(bundle, ext1, ext2, source="preset")


def cochain_to_json(phi):
    return {
        "degree": phi.degree,
        "type": [phi.i, phi.j],
        "mats": [[[format_element(mat.get(r, c)) if mat.get(r, c) else "0"
                   for c in range(mat.ncols)] for r in range(mat.nrows)]
                 for mat in phi.mats],
    }
