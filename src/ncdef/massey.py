"""The order-by-order hull algorithm driven by matric Massey products.

State at order n is a defining system: one 1-cochain per basis monomial of
the truncated hull H_n, flat in the sense of the checker.  Advancing one
order builds the bookkeeping ring R_n (the truncation of T1 by I*f + f*I
with the truncated relation series adjoined as tagged basis vectors),
extracts the obstruction 2-cocycles y(X) as the top-degree components of
d*d, projects them onto the certified Ext^2 basis to extend the relation
series, collapses the tags to reach H_{n+1}, and solves correction cochains
so the extended family is flat again.  The collapse substitutes each tag by
its combination of top-degree monomials in R's structure constants, so the
curvature of the defining system over H is R's curvature pushed through the
substitution; that curvature is the residual the corrections kill.  A
degree's basis never changes once the hull passes it, so the state keeps
the current H and, for the next order, the last bookkeeping ring: R_{n+1}
extends R_n by one degree, carrying R_n whole when the rules below its
cutoff and the tag relations did not change (and are homogeneous), and
building from nothing when they did.  A run also remembers the
Ext^2 coefficients of every cocycle it projected and the Yoneda product of
every pair of system cochains it composed, since neither changes.

Stabilization is certified separately: the zero extension of the defining
system over the relation quotient, truncated two degrees above the last
relation and at least at twice the system's top degree, must already be
flat.  The run stops early only on such a complete certificate.

The state (``HullState``) and an immediate Massey value (``MasseyValue``)
are namedtuples; a new order is a new state.
"""

from __future__ import annotations

from collections import namedtuple

from .checker import (LiftedComplex, YonedaProducts, certificate_cutoff, curvature,
                      product_sum, verify_lifted_complex)
from .errors import (FlatnessViolated, NcdefError, NotACoboundary, NotACocycle,
                     ProjectionFailed, ValidationError)
from .matrix_ring import (MatricPoly, Monomial, RelTag, build_quotient,
                          build_tagged_truncation, concat, divisor_truncation,
                          format_monomial, format_tag, quotient_by_vectors)
from .presets import cochain_to_json
from .yoneda import is_cocycle, project_ext2, solve_coboundary


class HullState(namedtuple("HullState", [
        "bundle", "table", "ext", "options", "order",
        "algebra",            # H_order, monomial basis
        "system",             # Monomial -> Cochain (sparse, zeros omitted)
        "series",             # RelTag -> MatricPoly
        "products_log", "stabilized", "certificate",
        "ring",               # the truncation the next bookkeeping ring extends
        "memo"],              # RunMemo, shared by the states of one run
        defaults=[False, None, None, None])):
    """Snapshot of the hull computation at one order."""

    __slots__ = ()

    def relations(self):
        """Nonzero relation series, keyed by tag, in canonical order."""
        out = {}
        for tag in sorted(self.series):
            if not self.series[tag].is_zero():
                out[tag] = self.series[tag]
        return out

    def max_relation_degree(self):
        degs = [f.max_degree() for f in self.series.values() if not f.is_zero()]
        return max(degs, default=0)


# what a run computes once: each 2-cocycle's Ext^2 coefficients, as
# (cocycle, coefficients) pairs listed by type, and the Yoneda products of
# its cochains
RunMemo = namedtuple("RunMemo", ["projections", "compose"])


def init_order2(ext, options):
    """Defining system at the tangent level: differentials plus Ext^1 reps."""
    bundle = ext.bundle
    table = ext.table()
    algebra = build_quotient(table, [], 2)
    system = {}
    for i in range(1, bundle.p + 1):
        system[Monomial.idempotent(i)] = bundle.differential_cochain(i)
    for arrow in table.arrows:
        i, j, l = arrow
        system[Monomial.from_arrows([arrow])] = ext.ext1_rep(i, j, l)
    series = {tag: MatricPoly((tag.i, tag.j)) for tag in table.rel_tags()}
    return HullState(bundle=bundle, table=table, ext=ext, options=options,
                     order=2, algebra=algebra, system=system, series=series,
                     products_log={}, ring=algebra,
                     memo=RunMemo(projections={}, compose=YonedaProducts()))


def order_obstructions(state):
    """Bookkeeping ring and obstruction cocycles for the next order.

    Returns (R, ys, ws): R is the tagged truncation at cutoff order+1, ys
    maps each top-degree basis monomial to its obstruction 2-cocycle y(X),
    and ws maps each relation tag to the 2-cocycle sitting on its basis
    vector (a representative of the dual basis class, used as an internal
    consistency check).
    """
    n = state.order
    R = build_tagged_truncation(state.table, state.series, n + 1, state.ring)
    for mono in state.algebra.monomial_basis():
        if mono not in R.index:
            raise FlatnessViolated("basis monomial %r lost in the bookkeeping ring"
                                   % (mono,))
    curv = curvature(R, state.system, state.memo.compose)
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


def _by_type(cochains, solve):
    """Results of ``solve(type, cochains of that type)``, one call per type.

    ``cochains`` maps keys to cochains; returns key -> result in its order.
    """
    groups = {}
    for key, y in cochains.items():
        groups.setdefault(y.type, []).append(key)
    out = {}
    for typ, keys in groups.items():
        out.update(zip(keys, solve(typ, [cochains[key] for key in keys])))
    return {key: out[key] for key in cochains}


def _project(state, cochains):
    """Coefficients of each 2-cocycle over the Ext^2 basis of its type.

    A run projects each distinct nonzero cocycle once and keeps its
    coefficients in ``state.memo``; the new ones of one type are projected
    in one call.
    """
    ladder = state.options.ladder
    ext2 = state.ext.ext2
    seen = state.memo.projections

    def known(y):
        if y.is_zero():
            return [0] * len(ext2.get(y.type, []))
        return next((coeffs for z, coeffs in seen.get(y.type, ()) if z == y), None)

    new = {}
    for key, y in cochains.items():
        if known(y) is None and y not in new.values():
            new[key] = y
    projected = _by_type(new, lambda typ, ys: [
        coeffs for coeffs, _ in project_ext2(ys, ext2.get(typ, []), ladder)])
    for key, coeffs in projected.items():
        seen.setdefault(new[key].type, []).append((new[key], coeffs))
    return {key: known(y) for key, y in cochains.items()}


def advance_order(state):
    """One step of the hull algorithm; returns the state at order + 1.

    The new state carries R, the ring the next order extends, and the run's
    memo; the relation-class check, the cocycle checks and the flatness
    checks run on every order's values.
    """
    n = state.order
    opts = state.options
    R, ys, ws = order_obstructions(state)

    # relation-class consistency: each tagged curvature must represent the
    # dual basis vector of its own tag
    for tag, coeffs in _project(state, ws).items():
        want = [1 if l + 1 == tag.l else 0 for l in range(len(coeffs))]
        if coeffs != want:
            raise FlatnessViolated("relation class %s does not project to its "
                                   "dual basis vector" % (format_tag(tag),))

    products = {}
    new_series = dict(state.series)
    projected = _project(state, {x: ys[x] for x in sorted(ys, key=Monomial.key)})
    for x, coeffs in projected.items():
        products[x] = {RelTag(x.i, x.j, l + 1): c
                       for l, c in enumerate(coeffs) if c}
        for tag, c in products[x].items():
            new_series[tag] = new_series[tag].add_term(x, c)

    # collapse the tags: each tag becomes the combination sum_x <x, tag> x of
    # the top-degree monomials, a substitution into R's structure constants
    vectors = []
    for tag in sorted(new_series):
        vec = {}
        if tag in R.index:
            vec[R.index[tag]] = 1
        for x, value in products.items():
            if tag in value:
                vec[R.index[x]] = value[tag]
        if vec:
            vectors.append(vec)
    H = quotient_by_vectors(R, vectors)
    if H.tags():
        raise FlatnessViolated("relation tags survived the order collapse")

    # H's structure constants are R's pushed through the collapse, so by
    # linearity its curvature is R's curvature pushed
    compose = state.memo.compose
    residual = curvature(H, state.system, compose)
    for label in residual:
        if label.degree < n:
            raise FlatnessViolated("order collapse disturbed degree %d"
                                   % label.degree)

    targets = {x: residual[x] for x in H.basis_of_degree(n) if x in residual}
    alphas = _by_type(targets, lambda typ, ys: solve_coboundary(ys, opts.ladder))
    system = dict(state.system)
    system.update(alphas)

    lifted = LiftedComplex(H, state.bundle, system)
    ok, failure = verify_lifted_complex(lifted, compose)
    if not ok:
        raise FlatnessViolated("extended defining system fails at %r" % (failure,))

    plog = dict(state.products_log)
    plog[n] = products
    return HullState(bundle=state.bundle, table=state.table, ext=state.ext,
                     options=opts, order=n + 1, algebra=H, system=system,
                     series=new_series, products_log=plog, ring=R,
                     memo=state.memo)


def check_stabilized(state):
    """Certify that the relation series is already complete: (flag, certificate)
    of the system over the relation quotient truncated at ``certificate_cutoff``.
    """
    relations = list(state.relations().values())
    vc = certificate_cutoff(state.options.verify_cutoff, relations, state.system)
    T = build_quotient(state.table, relations, vc + 1)
    return stabilization_certificate(T, state.bundle, relations, state.system)


def stabilization_certificate(quotient, bundle, relations, system):
    """(flag, certificate) of ``system`` over ``quotient``, the quotient by
    ``relations`` below its cutoff, for a run and for ``verify`` alike.

    The system extends by zero to the new basis monomials; its curvature lies
    in degrees <= 2q, q its top degree, so a flat check from raw structure
    constants at a cutoff >= 2q is complete.  A carried monomial that is not
    a basis monomial fails at once.
    """
    for label, phi in system.items():
        if not phi.is_zero() and label not in quotient.index:
            return False, {"reason": "a carried monomial is not a basis "
                                      "monomial of the relation quotient",
                           "monomial": format_monomial(label)}
    ok, failure = verify_lifted_complex(LiftedComplex(quotient, bundle, system))
    certificate = {
        "verified_cutoff": quotient.cutoff - 1,
        "complete": True,
        "relation_degrees": sorted({f.max_degree() for f in relations}),
        "raw_square_terms": _raw_products(system),
        "reduces_to_zero": bool(ok),
    }
    if not ok:
        certificate["first_failure"] = [format_monomial(failure[0])
                                        if isinstance(failure[0], Monomial)
                                        else format_tag(failure[0]), failure[1]]
    return ok, certificate


def _raw_products(system):
    """Free-ring components of d*d before reduction, for the certificate."""
    items = {label: phi for label, phi in sorted(system.items(),
                                                 key=lambda kv: kv[0].key())
             if not phi.is_zero()}

    def free_product(a, b):
        m = concat(a, b)
        return {m: 1} if m is not None and m.degree > 0 else {}

    raw = product_sum(items, items, free_product)
    return {format_monomial(m): cochain_to_json(raw[m])["mats"]
            for m in sorted(raw, key=Monomial.key)}


def compute_hull(ext, options):
    """Iterate the order step until stabilization or the order cap.

    Returns the final state; the per-order product log lives on the state,
    the stabilization certificate on state.certificate.
    """
    state = init_order2(ext, options)
    stabilized, certificate = False, None
    while state.order <= options.max_order and not stabilized:
        try:
            state = advance_order(state)
        except NcdefError as exc:
            exc.args = ("order %d: %s" % (state.order, exc),)
            raise
        # only a certificate that can stop the loop is worth one per order
        if options.stop_on_stabilized:
            stabilized, certificate = check_stabilized(state)
    if certificate is None:
        stabilized, certificate = check_stabilized(state)
    return state._replace(stabilized=stabilized, certificate=certificate)


# outcome of an immediately defined matric Massey product: coefficients maps
# RelTag -> int or Fraction; failed_at is the divisor where no system extends
MasseyValue = namedtuple("MasseyValue", ["defined", "coefficients", "failed_at"],
                         defaults=[None, None])


def immediate_massey(x, cochains, ext, options):
    """Matric Massey product attached to the monomial x.

    ``cochains`` maps each arrow dividing x to a 1-cocycle of its type.  A
    defining system over the divisor algebra of x (which keeps x) is grown
    degree by degree: the curvature component of each new divisor is the
    factorization sum over the divisors already in the system, and the
    coboundary solver kills it.  If some intermediate divisor blocks, the
    product is undefined for this input and the blocking divisor is
    reported.  The last curvature must vanish on every proper divisor; its
    component at x, projected onto Ext^2, is the value for the deterministic
    system this engine found.
    """
    bundle = ext.bundle
    if x.degree < 2:
        raise ValidationError("matric Massey products need degree >= 2")
    system = {}
    for i in range(1, bundle.p + 1):
        system[Monomial.idempotent(i)] = bundle.differential_cochain(i)
    for arrow in sorted(set(x.arrows)):
        if arrow not in cochains:
            raise ValidationError("missing cochain for dividing arrow %s"
                                  % (arrow,))
        phi = cochains[arrow]
        if phi.type != (arrow[0], arrow[1]) or phi.degree != 1:
            raise ValidationError("cochain for %s mistyped" % (arrow,))
        if not is_cocycle(phi):
            raise NotACocycle("input cochain for %s" % (arrow,))
        system[Monomial.from_arrows([arrow])] = phi

    algebra = divisor_truncation(x, bundle.p)
    for degree in range(2, x.degree):
        curv = curvature(algebra, system)
        for z in algebra.basis_of_degree(degree):
            if z not in curv:
                continue
            try:
                (system[z],) = solve_coboundary([curv[z]], options.ladder)
            except NotACoboundary:
                return MasseyValue(defined=False, failed_at=z)

    curv = curvature(algebra, system)
    value = curv.pop(x, bundle.zero_cochain(2, x.i, x.j))
    if curv:
        failure = min(curv)
        raise FlatnessViolated("defining system for %r fails at %r"
                               % (x, failure))
    basis = ext.ext2.get(x.type, [])
    if value.is_zero():
        coeffs = [0] * len(basis)
    else:
        try:
            ((coeffs, _),) = project_ext2([value], basis, options.ladder)
        except ProjectionFailed:
            return MasseyValue(defined=False, failed_at=x)
    out = {RelTag(x.i, x.j, l + 1): c for l, c in enumerate(coeffs) if c}
    return MasseyValue(defined=True, coefficients=out)
