"""Deformations as lifted complexes, with independent flatness verification.

A family of 1-cochains indexed by the basis of a pointed algebra R defines
maps of R-matrix free modules; it is an actual complex (d compose d = 0) iff
for every basis element Z and homological index m the structure-constant
weighted sum of matrix products

    sum over pairs (X', X'') with coefficient of Z in X'*X''
        of  alpha(X'')_{m+1} * alpha(X')_m

vanishes.  This file recomputes that condition from raw structure constants
only, making it an independent cross-check of the order-by-order engine.
"""

from __future__ import annotations

from .errors import NotACocycle, ShapeMismatch, ValidationError
from .linalg import solve_sparse
from .matrix_ring import (GeneratorTable, Monomial, build_quotient, label_sort_key,
                          label_type)
from .yoneda import (DEFAULT_BOUND, MAX_BOUND, RETRY_STEP, Cochain, Mat,
                     SparseSystem, bound_ladder, compose_cochains, decode_entries,
                     is_cocycle, multiply)


def curvature(algebra, system, bundle):
    """Per-basis-label components of d*d for the lifted differential.

    ``system`` maps basis labels to degree-1 cochains (missing labels count
    as zero; idempotent labels must carry the resolution differentials).
    Returns a dict label -> degree-2 Cochain, omitting zero entries.
    """
    items = []
    for label, phi in system.items():
        if label not in algebra.index:
            continue
        if phi.degree != 1 or phi.type != label_type(label):
            raise ShapeMismatch("cochain for %r has degree %d type %s"
                                % (label, phi.degree, phi.type))
        if not phi.is_zero():
            items.append((algebra.index[label], label, phi))
    acc = {}
    ncomp = bundle.mmax - 1
    for ia, la, ca in items:
        for ib, lb, cb in items:
            if label_type(la)[1] != label_type(lb)[0]:
                continue
            coords = algebra.product(ia, ib)
            if not coords:
                continue
            terms = compose_cochains(ca, cb).mats
            if all(t.is_zero() for t in terms):
                continue
            for zidx, coeff in coords.items():
                zlabel = algebra.basis[zidx]
                if zlabel not in acc:
                    zi, zj = label_type(zlabel)
                    acc[zlabel] = [Mat(bundle.res(zj).rank(m + 2),
                                       bundle.res(zi).rank(m))
                                   for m in range(ncomp)]
                slot = acc[zlabel]
                for m in range(ncomp):
                    if not terms[m].is_zero():
                        slot[m] = slot[m].add(terms[m].scale(coeff))
    out = {}
    for zlabel, mats in acc.items():
        if any(not m.is_zero() for m in mats):
            zi, zj = label_type(zlabel)
            out[zlabel] = Cochain(bundle, 2, zi, zj, mats)
    return out


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


def verify_lifted_complex(complex_):
    """Check the flatness condition; returns (ok, first_failure_or_None)."""
    curv = curvature(complex_.algebra, complex_.system(), complex_.bundle)
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


def equivalence_check(c1, c2, degree_bound=DEFAULT_BOUND, retry_step=RETRY_STEP,
                      max_bound=MAX_BOUND):
    """Search for an M-free isomorphism over R intertwining two complexes.

    The unknown is a family of degree-0 cochains q(X) over the radical
    basis, extended by the identity on idempotents; the chain-map condition
    is a linear system solved with bounded-degree entries.  A True answer is
    exact; False certifies no intertwiner with entries up to the last bound
    of the ladder.
    """
    if c1.algebra is not c2.algebra and c1.algebra.basis != c2.algebra.basis:
        raise ValidationError("complexes live over different algebras")
    algebra = c1.algebra
    bundle = c1.bundle
    pres = bundle.pres
    sys1 = c1.system()
    sys2 = c2.system()
    for bound in bound_ladder(degree_bound, retry_step, max_bound):
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
        sol = solve_sparse(system.equations())
        if sol is not None and _intertwines(c1, c2, decode_entries(sol, "q", pres)):
            return True
    return False


def _intertwines(c1, c2, q_entries):
    """Exact check that q (entries keyed (label index, m)) is a chain map."""
    bundle = c1.bundle
    algebra = c1.algebra
    pres = bundle.pres

    def qmat(label, m):
        if isinstance(label, Monomial) and label.degree == 0:
            rank = bundle.res(label.i).rank(m)
            return Mat(rank, rank, {(t, t): pres.one() for t in range(rank)})
        li, lj = label_type(label)
        return Mat(bundle.res(lj).rank(m), bundle.res(li).rank(m),
                   q_entries.get((algebra.index[label], m), {}))

    sys1 = c1.system()
    sys2 = c2.system()
    for zidx, zlabel in enumerate(algebra.basis):
        zi, zj = label_type(zlabel)
        for m in range(bundle.mmax):
            total = Mat(bundle.res(zj).rank(m + 1), bundle.res(zi).rank(m))
            for aidx, alabel in enumerate(algebra.basis):
                for bidx, blabel in enumerate(algebra.basis):
                    coeff = algebra.product(aidx, bidx).get(zidx)
                    if not coeff:
                        continue
                    phi1 = sys1.get(blabel)
                    if phi1 is not None:
                        total = total.add(
                            phi1.mats[m].mul(qmat(alabel, m)).scale(coeff))
                    phi2 = sys2.get(alabel)
                    if phi2 is not None:
                        total = total.add(
                            qmat(blabel, m + 1).mul(phi2.mats[m]).scale(-coeff))
            if not total.is_zero():
                return False
    return True
