"""Deformations as lifted complexes, with independent flatness verification.

A family of 1-cochains indexed by the basis of a pointed algebra R defines
maps of R-matrix free modules; it is an actual complex (d compose d = 0) iff
for every basis element Z and homological index m the structure-constant
weighted sum of matrix products

    sum over pairs (X', X'') with coefficient of Z in X'*X''
        of  alpha(X'')_{m+1} * alpha(X')_m

vanishes.  ``product_sum`` forms every such sum (this curvature, the
certificate's free-ring square and the chain-map check alpha1 * q = q * alpha2
of an intertwiner) from raw structure constants only, which makes it an
independent cross-check of the order-by-order engine.
"""

from __future__ import annotations

from .errors import NotACocycle, ShapeMismatch, ValidationError
from .linalg import solve_sparse
from .matrix_ring import (GeneratorTable, Monomial, build_quotient, label_sort_key,
                          label_type)
from .yoneda import (Cochain, Mat, SparseSystem, compose_cochains, decode_entries,
                     is_cocycle, multiply)


def product_sum(left, right, product, compose=None):
    """{z: sum over (a, b) of <z, a*b> left[a] . right[b]}, zero sums omitted.

    ``left`` and ``right`` map keys to cochains, ``product(a, b)`` gives a*b
    as {z: coefficient}, and . is the Yoneda product ``compose_cochains``,
    or ``compose``, a ``YonedaProducts`` that remembers it.
    """
    compose = compose or compose_cochains
    acc = {}
    for a, ca in left.items():
        for b, cb in right.items():
            if ca.j != cb.i:
                continue
            coords = product(a, b)
            if not coords:
                continue
            prod = compose(ca, cb)
            if prod.is_zero():
                continue
            for z, coeff in coords.items():
                if z not in acc:
                    acc[z] = (prod, [Mat(t.nrows, t.ncols) for t in prod.mats])
                slot = acc[z][1]
                for m, term in enumerate(prod.mats):
                    if not term.is_zero():
                        slot[m] = slot[m].add(term.scale(coeff))
    return {z: Cochain(shape.bundle, shape.degree, shape.i, shape.j, mats)
            for z, (shape, mats) in acc.items()
            if any(not mat.is_zero() for mat in mats)}


class YonedaProducts:
    """``compose_cochains`` remembered per pair of cochain objects.

    A defining system's cochains never change once set, so the order step
    keeps one of these for a whole run and composes each pair once.  It
    holds every cochain it has seen, so no id is reused while it lives.
    """

    def __init__(self):
        self._seen = {}

    def __call__(self, outer, inner):
        key = (id(outer), id(inner))
        entry = self._seen.get(key)
        if entry is None:
            entry = self._seen[key] = (outer, inner, compose_cochains(outer, inner))
        return entry[2]


def curvature(algebra, system, compose=None):
    """Per-basis-label components of d*d for the lifted differential.

    ``system`` maps basis labels to degree-1 cochains (missing labels count
    as zero; idempotent labels must carry the resolution differentials).
    Returns a dict label -> degree-2 Cochain, omitting zero entries.
    ``compose`` is as in ``product_sum``.
    """
    items = {}
    for label, phi in system.items():
        if label not in algebra.index:
            continue
        if phi.degree != 1 or phi.type != label_type(label):
            raise ShapeMismatch("cochain for %r has degree %d type %s"
                                % (label, phi.degree, phi.type))
        if not phi.is_zero():
            items[algebra.index[label]] = phi
    curv = product_sum(items, items, algebra.product, compose)
    return {algebra.basis[z]: phi for z, phi in curv.items()}


def certificate_cutoff(requested, relations, system):
    """The degree to which a stabilization certificate checks flatness: at
    least ``requested`` (or None), two above the last of the ``relations``
    (2 without one), and 2q for q the top degree of ``system``, since the
    curvature of its zero extension lives in degrees <= 2q."""
    maxrel = max((f.max_degree() for f in relations if not f.is_zero()), default=0)
    q = max((label.degree for label, phi in system.items() if not phi.is_zero()),
            default=1)
    return max(requested or 0, (maxrel or 2) + 2, 2 * q)


class LiftedComplex:
    """A candidate M-free complex over a pointed algebra.

    The idempotent labels must carry the resolution differentials; other
    labels carry arbitrary type-matched 1-cochains (missing means zero).
    """

    def __init__(self, algebra, bundle, cochains):
        self.algebra = algebra
        self.bundle = bundle
        self.cochains = {}
        for i in range(1, algebra.p + 1):
            e = Monomial.idempotent(i)
            want = bundle.differential_cochain(i)
            got = cochains.get(e)
            if got is not None and got != want:
                raise ValidationError("idempotent e%d must carry the resolution "
                                      "differentials" % i)
            self.cochains[e] = want
        for label, phi in cochains.items():
            if isinstance(label, Monomial) and label.degree == 0:
                continue
            if phi.degree != 1 or phi.type != label_type(label):
                raise ShapeMismatch("cochain for %r mistyped" % (label,))
            self.cochains[label] = phi

    def system(self):
        return dict(self.cochains)


def verify_lifted_complex(complex_, compose=None):
    """Check the flatness condition; returns (ok, first_failure_or_None).

    ``compose`` is as in ``product_sum``."""
    curv = curvature(complex_.algebra, complex_.system(), compose)
    if not curv:
        return True, None
    failures = sorted(curv, key=label_sort_key)
    z = failures[0]
    m = next(m for m, mat in enumerate(curv[z].mats) if not mat.is_zero())
    return False, (z, m)


def test_algebra_deformation(cocycle, bundle):
    """Lifted complex over the one-arrow test algebra defined by a 1-cocycle.

    The test algebra for the pair (a, b) is the free matrix ring on a single
    generator of that type modulo the square of its radical; flatness is
    equivalent to the cocycle condition, checked up front.
    """
    if cocycle.degree != 1:
        raise ShapeMismatch("test-algebra deformations take 1-cochains")
    if not is_cocycle(cocycle):
        raise NotACocycle("test-algebra deformations need a cocycle")
    a, b = cocycle.type
    table = GeneratorTable(bundle.p, {(a, b): 1})
    algebra = build_quotient(table, [], 2)
    eps = Monomial.from_arrows([(a, b, 1)])
    return LiftedComplex(algebra, bundle, {eps: cocycle})


# the name follows the operation it implements; it is not a test case
test_algebra_deformation.__test__ = False


def equivalence_check(c1, c2, ladder):
    """Search for an M-free isomorphism over R intertwining two complexes.

    The unknown is a family of degree-0 cochains q(X) over the radical
    basis, extended by the identity on idempotents; the chain-map condition
    is a linear system solved with entries of degree up to each bound of
    ``ladder`` in turn.  A True answer is exact; False certifies no
    intertwiner with entries up to the last bound.
    """
    if c1.algebra is not c2.algebra and c1.algebra.basis != c2.algebra.basis:
        raise ValidationError("complexes live over different algebras")
    algebra = c1.algebra
    bundle = c1.bundle
    pres = bundle.pres
    sys1 = c1.system()
    sys2 = c2.system()
    for bound in ladder:
        words = pres.normal_words(bound)
        # equation (Z, m, r, c, w): word w of entry (r, c) of component m of
        # the Z-part of alpha1 * q - q * alpha2; q of an idempotent is 1
        system = SparseSystem()
        for zidx, zlabel in enumerate(algebra.basis):
            zi, zj = label_type(zlabel)
            for aidx, alabel in enumerate(algebra.basis):
                for bidx, blabel in enumerate(algebra.basis):
                    coeff = algebra.product(aidx, bidx).get(zidx)
                    if not coeff:
                        continue
                    a_id = isinstance(alabel, Monomial) and alabel.degree == 0
                    b_id = isinstance(blabel, Monomial) and blabel.degree == 0
                    phi1 = sys1.get(blabel)
                    phi2 = sys2.get(alabel)
                    for m in range(bundle.mmax):
                        rows_out = bundle.res(zj).rank(m + 1)
                        cols_out = bundle.res(zi).rank(m)
                        if rows_out == 0 or cols_out == 0:
                            continue
                        # alpha1(b)_m * q(a)_m
                        if phi1 is not None:
                            for (r, t), v in phi1.mats[m].entries.items():
                                if a_id:
                                    system.add((zidx, m, r, t), v, scale=-coeff)
                                    continue
                                for w in words:
                                    prod = multiply(v, pres.element({w: 1}))
                                    for c in range(cols_out):
                                        system.add((zidx, m, r, c), prod,
                                                   ("q", aidx, m, t, c, w), coeff)
                        # - q(b)_{m+1} * alpha2(a)_m
                        if phi2 is not None:
                            for (t, c), v in phi2.mats[m].entries.items():
                                if b_id:
                                    system.add((zidx, m, t, c), v, scale=coeff)
                                    continue
                                for w in words:
                                    prod = multiply(pres.element({w: 1}), v)
                                    for r in range(rows_out):
                                        system.add((zidx, m, r, c), prod,
                                                   ("q", bidx, m + 1, r, t, w), -coeff)
        (sol,) = solve_sparse(system.equations(), 1)
        if sol is not None and _intertwines(c1, c2, decode_entries(sol, "q", pres)):
            return True
    return False


def _intertwines(c1, c2, q_entries):
    """Exact check that q (entries keyed (label index, m)) is a chain map:
    alpha1 * q == q * alpha2 over the basis, with q = 1 on idempotents."""
    bundle = c1.bundle
    algebra = c1.algebra
    q = {}
    for idx, label in enumerate(algebra.basis):
        li, lj = label_type(label)
        if isinstance(label, Monomial) and label.degree == 0:
            mats = [Mat(r, r, {(t, t): bundle.pres.one() for t in range(r)})
                    for r in map(bundle.res(li).rank, range(bundle.mmax + 1))]
        else:
            mats = [Mat(bundle.res(lj).rank(m), bundle.res(li).rank(m),
                        q_entries.get((idx, m), {})) for m in range(bundle.mmax + 1)]
        q[idx] = Cochain(bundle, 0, li, lj, mats)
    sys1, sys2 = ({algebra.index[label]: phi for label, phi in c.system().items()
                   if label in algebra.index} for c in (c1, c2))
    return (product_sum(q, sys1, algebra.product)
            == product_sum(sys2, q, algebra.product))
