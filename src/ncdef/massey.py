"""The order-by-order hull algorithm driven by matric Massey products.

State at order n is a defining system: one 1-cochain per basis monomial of
the truncated hull H_n, flat in the sense of the checker.  Advancing one
order builds the bookkeeping ring R_n (the truncation of T1 by I*f + f*I
with the truncated relation series adjoined as tagged basis vectors),
extracts the obstruction 2-cocycles y(X) as the top-degree components of
d*d, projects them onto the certified Ext^2 basis to extend the relation
series, collapses the tags to reach H_{n+1}, and solves correction cochains
so the extended family is flat again.

Stabilization is certified separately: the zero extension of the defining
system over the relation quotient, truncated a couple of degrees above the
last relation, must already be flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .checker import LiftedComplex, curvature, verify_lifted_complex
from .errors import (FlatnessViolated, NcdefError, NotACoboundary, NotACocycle,
                     ProjectionFailed, ValidationError)
from .matrix_ring import (MatricPoly, Monomial, RelTag, build_quotient,
                          build_tagged_truncation, concat, divisor_monomials,
                          divisor_truncation, factorizations, format_monomial,
                          format_tag, quotient_by_vectors)
from .yoneda import compose_cochains, is_cocycle, project_ext2, solve_coboundary


@dataclass
class HullState:
    """Snapshot of the hull computation at one order; immutable by use."""

    bundle: object
    table: object
    ext: object
    options: object
    order: int
    algebra: object                      # H_order, monomial basis
    system: dict                         # Monomial -> Cochain (sparse, zeros omitted)
    series: dict                         # RelTag -> MatricPoly
    basis_chain: dict                    # degree -> list[Monomial]
    products_log: dict = field(default_factory=dict)
    corrections_log: dict = field(default_factory=dict)
    stabilized: bool = False
    certificate: dict | None = None

    def relations(self):
        """Nonzero relation series, keyed by tag, in canonical order."""
        out = {}
        for tag in sorted(self.series, key=lambda t: (t.i, t.j, t.l)):
            if not self.series[tag].is_zero():
                out[tag] = self.series[tag]
        return out

    def max_relation_degree(self):
        degs = [f.max_degree() for f in self.series.values() if not f.is_zero()]
        return max(degs, default=0)


def init_order2(ext, options, bundle=None):
    """Defining system at the tangent level: differentials plus Ext^1 reps."""
    bundle = bundle or ext.bundle
    table = ext.table()
    algebra = build_quotient(table, [], 2)
    system = {}
    for i in range(1, bundle.p + 1):
        system[Monomial.idempotent(i)] = bundle.differential_cochain(i)
    for arrow in table.all_arrows():
        i, j, l = arrow
        system[Monomial.from_arrows([arrow])] = ext.ext1_rep(i, j, l)
    series = {tag: MatricPoly((tag.i, tag.j)) for tag in table.rel_tags()}
    return HullState(bundle=bundle, table=table, ext=ext, options=options,
                     order=2, algebra=algebra, system=system, series=series,
                     basis_chain={1: algebra.basis_of_degree(1)})


def _indexed_system(state, algebra):
    return {label: phi for label, phi in state.system.items()
            if label in algebra.index}


def order_obstructions(state):
    """Bookkeeping ring and obstruction cocycles for the next order.

    Returns (R, ys, ws): R is the tagged truncation at cutoff order+1, ys
    maps each top-degree basis monomial to its obstruction 2-cocycle y(X),
    and ws maps each relation tag to the 2-cocycle sitting on its basis
    vector (a representative of the dual basis class, used as an internal
    consistency check).
    """
    n = state.order
    R = build_tagged_truncation(state.table, state.series, n + 1)
    for mono in state.algebra.monomial_basis():
        if mono not in R.index:
            raise FlatnessViolated("basis monomial %r lost in the bookkeeping ring"
                                   % (mono,))
    curv = curvature(R, _indexed_system(state, R), state.bundle)
    ys = {}
    ws = {}
    for label, comp in curv.items():
        if isinstance(label, RelTag):
            ws[label] = comp
            continue
        if label.degree < n:
            raise FlatnessViolated(
                "defining system of order %d has curvature at %r" % (n, label))
        ys[label] = comp
    for x in R.basis_of_degree(n):
        ys.setdefault(x, state.bundle.zero_cochain(2, x.i, x.j))
    for tag in R.tags():
        ws.setdefault(tag, state.bundle.zero_cochain(2, tag.i, tag.j))
    for y in ys.values():
        if not is_cocycle(y):
            raise NotACocycle("obstruction cochain is not a cocycle")
    for w in ws.values():
        if not is_cocycle(w):
            raise NotACocycle("relation-class cochain is not a cocycle")
    return R, ys, ws


def _project(state, y):
    """Coefficients of a 2-cocycle over the Ext^2 basis of its type."""
    basis = state.ext.ext2.get(y.type, [])
    if y.is_zero():
        return [Fraction(0)] * len(basis)
    opts = state.options
    coeffs, _ = project_ext2(y, basis, degree_bound=opts.degree_bound,
                             retry_step=opts.retry_step, max_bound=opts.max_bound)
    return coeffs


def massey_products_of_order(state):
    """Map X in B'(n) -> Ext^2 coefficient vector (by relation tag)."""
    _, ys, _ = order_obstructions(state)
    out = {}
    for x in sorted(ys, key=Monomial.key):
        coeffs = _project(state, ys[x])
        out[x] = {RelTag(x.i, x.j, l + 1): c for l, c in enumerate(coeffs) if c}
    return out


def obstruction_cocycle(x, state):
    """The 2-cocycle y(X) attached to a top-degree basis monomial."""
    _, ys, _ = order_obstructions(state)
    if x not in ys:
        raise ValidationError("%r is not a degree-%d basis monomial"
                              % (x, state.order))
    return ys[x]


def advance_order(state):
    """One step of the hull algorithm; returns the state at order + 1."""
    n = state.order
    opts = state.options
    R, ys, ws = order_obstructions(state)

    # relation-class consistency: each tagged curvature must represent the
    # dual basis vector of its own tag
    for tag, w in ws.items():
        coeffs = _project(state, w)
        want = [Fraction(1) if l + 1 == tag.l else Fraction(0)
                for l in range(len(coeffs))]
        if coeffs != want:
            raise FlatnessViolated("relation class %s does not project to its "
                                   "dual basis vector" % (format_tag(tag),))

    products = {}
    new_series = dict(state.series)
    a_coeffs = {}
    for x in sorted(ys, key=Monomial.key):
        coeffs = _project(state, ys[x])
        a_coeffs[x] = coeffs
        products[x] = {RelTag(x.i, x.j, l + 1): c
                       for l, c in enumerate(coeffs) if c}
        for l, c in enumerate(coeffs):
            if c:
                tag = RelTag(x.i, x.j, l + 1)
                new_series[tag] = new_series[tag].add_term(x, c)

    # collapse the tags: f-classes become combinations of the new monomials
    vectors = []
    for tag in sorted(new_series, key=lambda t: (t.i, t.j, t.l)):
        vec = {}
        if tag in R.index:
            vec[R.index[tag]] = Fraction(1)
        for x, coeffs in a_coeffs.items():
            if (x.i, x.j) == (tag.i, tag.j) and coeffs[tag.l - 1]:
                vec[R.index[x]] = coeffs[tag.l - 1]
        if vec:
            vectors.append(vec)
    H, eliminated, _ = quotient_by_vectors(R, vectors)
    if H.tags():
        raise FlatnessViolated("relation tags survived the order collapse")

    # curvature over H = curvature over R pushed through the collapse
    residual = {}
    curv_R = dict(ys)
    curv_R.update(ws)
    for label, coords in eliminated.items():
        comp = curv_R.get(label)
        if comp is None or comp.is_zero():
            continue
        for idx, coeff in coords.items():
            zlabel = H.basis[idx]
            acc = residual.get(zlabel)
            residual[zlabel] = comp.scale(coeff) if acc is None \
                else acc.add(comp.scale(coeff))
    for x in H.basis_of_degree(n):
        comp = curv_R.get(x)
        if comp is not None:
            acc = residual.get(x)
            residual[x] = comp if acc is None else acc.add(comp)

    corrections = {}
    system = dict(state.system)
    for x in H.basis_of_degree(n):
        target = residual.get(x)
        if target is None or target.is_zero():
            continue
        alpha = solve_coboundary(target, degree_bound=opts.degree_bound,
                                 retry_step=opts.retry_step,
                                 max_bound=opts.max_bound)
        system[x] = alpha
        corrections[x] = {"alpha": alpha, "target": target}
    for zlabel, comp in residual.items():
        if isinstance(zlabel, Monomial) and zlabel.degree < n and not comp.is_zero():
            raise FlatnessViolated("order collapse disturbed degree %d"
                                   % zlabel.degree)

    lifted = LiftedComplex(H, state.bundle, system)
    ok, failure = verify_lifted_complex(lifted)
    if not ok:
        raise FlatnessViolated("extended defining system fails at %r" % (failure,))

    chain = dict(state.basis_chain)
    chain[n] = H.basis_of_degree(n)
    plog = dict(state.products_log)
    plog[n] = products
    clog = dict(state.corrections_log)
    clog[n] = corrections
    return HullState(bundle=state.bundle, table=state.table, ext=state.ext,
                     options=opts, order=n + 1, algebra=H, system=system,
                     series=new_series, basis_chain=chain, products_log=plog,
                     corrections_log=clog)


def check_stabilized(state):
    """Certify that the relation series is already complete.

    Builds the quotient by the current relations, truncated a couple of
    degrees above the last relation, extends the defining system by zero on
    every new basis monomial, and verifies flatness from raw structure
    constants.  Returns (flag, certificate).
    """
    relations = list(state.relations().values())
    maxrel = state.max_relation_degree() or 2
    q = max((lab.degree for lab, phi in state.system.items()
             if not phi.is_zero()), default=1)
    vc = state.options.verify_cutoff or (maxrel + 2)
    vc = max(vc, maxrel + 2)
    T = build_quotient(state.table, relations, vc + 1)
    for label, phi in state.system.items():
        if not phi.is_zero() and label not in T.index:
            return False, {"reason": "a carried monomial is not a basis "
                                      "monomial of the relation quotient",
                           "monomial": format_monomial(label)}
    lifted = LiftedComplex(T, state.bundle, _indexed_system(state, T))
    ok, failure = verify_lifted_complex(lifted)
    raw = _raw_products(state)
    certificate = {
        "verified_cutoff": vc,
        "complete": bool(2 * q <= vc),
        "relation_degrees": sorted({f.max_degree() for f in relations}) or [],
        "raw_square_terms": raw,
        "reduces_to_zero": bool(ok),
    }
    if not ok:
        certificate["first_failure"] = [format_monomial(failure[0])
                                        if isinstance(failure[0], Monomial)
                                        else format_tag(failure[0]), failure[1]]
    return ok, certificate


def _raw_products(state):
    """Free-ring components of d*d before reduction, for the certificate."""
    from .algebra import format_element
    items = [(label, phi) for label, phi in sorted(state.system.items(),
                                                   key=lambda kv: kv[0].key())
             if not phi.is_zero()]
    acc = {}
    for la, ca in items:
        for lb, cb in items:
            m = concat(la, lb)
            if m is None or m.degree == 0:
                continue
            prod = compose_cochains(ca, cb)
            if not prod.is_zero():
                acc[m] = acc[m].add(prod) if m in acc else prod
    out = {}
    for m in sorted(acc, key=Monomial.key):
        mats = acc[m].mats
        if all(t.is_zero() for t in mats):
            continue
        out[format_monomial(m)] = [
            [[format_element(mat.get(r, c)) if mat.get(r, c) else "0"
              for c in range(mat.ncols)] for r in range(mat.nrows)]
            for mat in mats]
    return out


def compute_hull(ext, options, bundle=None):
    """Iterate the order step until stabilization or the order cap.

    Returns the final state; per-order product and correction logs live on
    the state, the stabilization certificate on state.certificate.
    """
    state = init_order2(ext, options, bundle=bundle)
    while state.order <= options.max_order:
        try:
            state = advance_order(state)
        except NcdefError as exc:
            exc.args = ("order %d: %s" % (state.order, exc),)
            raise
        stabilized, certificate = check_stabilized(state)
        state.stabilized = stabilized
        state.certificate = certificate
        if stabilized and options.stop_on_stabilized:
            break
    if state.certificate is None:
        state.stabilized, state.certificate = check_stabilized(state)
    return state


@dataclass
class MasseyValue:
    """Outcome of an immediately defined matric Massey product."""

    defined: bool
    coefficients: dict | None = None     # RelTag -> Fraction
    failed_at: object = None             # divisor where no system extends

    def __repr__(self):
        if not self.defined:
            return "MasseyValue(undefined at %r)" % (self.failed_at,)
        return "MasseyValue(%r)" % (self.coefficients,)


def immediate_massey(x, cochains, ext, options):
    """Matric Massey product attached to the monomial x.

    ``cochains`` maps each arrow dividing x to a 1-cocycle of its type.  A
    defining system over the divisor algebra of x is grown degree by degree
    with the coboundary solver; if some intermediate divisor blocks, the
    product is undefined for this input and the blocking divisor is
    reported.  The value is the Ext^2 projection of the factorization sum,
    computed from the deterministic system this engine found.
    """
    bundle = ext.bundle
    if x.degree < 2:
        raise ValidationError("matric Massey products need degree >= 2")
    system = {}
    for i in range(1, bundle.p + 1):
        system[Monomial.idempotent(i)] = bundle.differential_cochain(i)
    needed = sorted({a for a in x.arrows}, key=lambda a: (a[0], a[1], a[2]))
    for arrow in needed:
        if arrow not in cochains:
            raise ValidationError("missing cochain for dividing arrow %s"
                                  % (arrow,))
        phi = cochains[arrow]
        if phi.type != (arrow[0], arrow[1]) or phi.degree != 1:
            raise ValidationError("cochain for %s mistyped" % (arrow,))
        if not is_cocycle(phi):
            raise NotACocycle("input cochain for %s" % (arrow,))
        system[Monomial.from_arrows([arrow])] = phi

    def partial_sum(z):
        total = None
        for left, right in factorizations(z):
            ca = system.get(left)
            cb = system.get(right)
            if ca is None or cb is None or left.degree == 0 or right.degree == 0:
                continue
            comp = compose_cochains(ca, cb)
            total = comp if total is None else total.add(comp)
        return total if total is not None \
            else bundle.zero_cochain(2, z.i, z.j)

    for z in divisor_monomials(x):
        if z.degree < 2:
            continue
        target = partial_sum(z)
        if target.is_zero():
            continue
        try:
            alpha = solve_coboundary(target, degree_bound=options.degree_bound,
                                     retry_step=options.retry_step,
                                     max_bound=options.max_bound)
        except NotACoboundary:
            return MasseyValue(defined=False, failed_at=z)
        system[z] = alpha

    # cross-check: the extended family is a flat complex over the divisor
    # algebra of x (the quotient in which only x itself has been killed)
    s_of_x = divisor_truncation(x, bundle.p)
    ok, failure = verify_lifted_complex(LiftedComplex(s_of_x, bundle, system))
    if not ok:
        raise FlatnessViolated("defining system for %r fails at %r"
                               % (x, failure))

    value = partial_sum(x)
    basis = ext.ext2.get(x.type, [])
    if value.is_zero():
        coeffs = [Fraction(0)] * len(basis)
    else:
        try:
            coeffs, _ = project_ext2(value, basis,
                                     degree_bound=options.degree_bound,
                                     retry_step=options.retry_step,
                                     max_bound=options.max_bound)
        except ProjectionFailed:
            return MasseyValue(defined=False, failed_at=x)
    out = {RelTag(x.i, x.j, l + 1): c for l, c in enumerate(coeffs) if c}
    return MasseyValue(defined=True, coefficients=out)
