"""Change-of-basis search for comparing relation sets (a test-side oracle)."""

from fractions import Fraction

from ncdef.matrix_ring import Monomial


def match_up_to_rescaling(rels_a, rels_b, arrows):
    """Diagonal rescalings carrying relation set b onto relation set a.

    Searches scalars lambda per degree-1 generator and mu per relation with
    mu * (rescaled b-relation) = a-relation, where rescaling multiplies each
    monomial coefficient by the product of its arrows' lambdas.  Returns
    (lambda dict, mu dict) or None; any returned answer is re-verified.
    """
    if set(rels_a) != set(rels_b):
        return None
    equations = []
    base_info = {}
    for tag in sorted(rels_a, key=lambda t: (t.i, t.j, t.l)):
        fa, fb = rels_a[tag], rels_b[tag]
        if set(fa.terms) != set(fb.terms):
            return None
        monos = sorted(fa.terms, key=Monomial.key)
        base = monos[0]
        base_ratio = Fraction(fa.terms[base], fb.terms[base])
        base_info[tag] = (base, base_ratio)
        for x in monos[1:]:
            ratio = Fraction(fa.terms[x], fb.terms[x]) / base_ratio
            exps = {}
            for a in x.arrows:
                exps[a] = exps.get(a, 0) + 1
            for a in base.arrows:
                exps[a] = exps.get(a, 0) - 1
            exps = {k: v for k, v in exps.items() if v}
            equations.append((exps, ratio))
    rows = []
    for exps, rhs in equations:
        exps = dict(exps)
        for pexps, prhs, pvar in rows:
            e = exps.get(pvar, 0)
            if e:
                q, r = divmod(e, pexps[pvar])
                if r:
                    return None
                for k, v in pexps.items():
                    exps[k] = exps.get(k, 0) - q * v
                exps = {k: v for k, v in exps.items() if v}
                rhs = rhs / prhs ** q
        if not exps:
            if rhs != 1:
                return None
            continue
        pivot = None
        for k in sorted(exps):
            if abs(exps[k]) == 1:
                pivot = k
                break
        if pivot is None:
            return None
        if exps[pivot] == -1:
            exps = {k: -v for k, v in exps.items()}
            rhs = 1 / rhs
        rows.append((exps, rhs, pivot))
    lam = {a: Fraction(1) for a in arrows}
    for exps, rhs, pivot in reversed(rows):
        value = rhs
        for k, v in exps.items():
            if k != pivot:
                value = value / lam[k] ** v
        lam[pivot] = value
    mu = {}
    for tag, (base, base_ratio) in base_info.items():
        scale = Fraction(1)
        for a in base.arrows:
            scale *= lam[a]
        mu[tag] = base_ratio / scale
    # verify: mu * rescale(b) == a
    for tag in rels_a:
        fa, fb = rels_a[tag], rels_b[tag]
        for x, c in fb.terms.items():
            scale = mu[tag]
            for a in x.arrows:
                scale *= lam[a]
            if c * scale != fa.terms[x]:
                return None
    return lam, mu
