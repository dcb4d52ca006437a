"""Canonical JSON reports, text presentation, diffing, and re-verification.

Reports are deterministic: object keys are sorted, ordered data lives in
lists following the fixed monomial enumeration, and scalars are printed in
lowest terms.  Two runs on identical input produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import format_scalar
from .checker import LiftedComplex, certificate_cutoff, verify_lifted_complex
from .errors import SchemaMismatch, ValidationError
from .massey import HullState, stabilization_certificate
from .matrix_ring import (GeneratorTable, MatricPoly, Monomial, build_quotient,
                          format_arrow, format_monomial, format_poly, format_tag,
                          monomials_of_degree, parse_monomial)
from .presets import cochain_to_json, problem_from_json, problem_name, read_cochain
from .yoneda import ExtComputer

SCHEMA_REPORT = "ncdef-report/1"


def ext_tables(computer, p):
    ext1 = [[computer.ext_dimension(i, j, 1)
             for j in range(1, p + 1)] for i in range(1, p + 1)]
    ext2 = [[computer.ext_dimension(i, j, 2)
             for j in range(1, p + 1)] for i in range(1, p + 1)]
    return {"ext1": ext1, "ext2": ext2}


def _products_json(state, order, products):
    table = state.table
    # a degree's basis is fixed once the hull reaches the next order
    basis = set(state.algebra.basis_of_degree(order))
    out = []
    for x in monomials_of_degree(table, order):
        if x not in products and x not in basis:
            continue
        value = products.get(x, {})
        out.append({
            "monomial": format_monomial(x, table),
            "value": {format_tag(t, table): format_scalar(c)
                      for t, c in sorted(value.items())},
        })
    return out


def relations_json(state):
    table = state.table
    out = []
    for tag, f in state.relations().items():
        out.append({
            "name": format_tag(tag, table),
            "type": [tag.i, tag.j],
            "terms": [{"monomial": [list(a) for a in m.arrows],
                       "coeff": format_scalar(c)}
                      for m, c in sorted(f.terms.items(),
                                         key=lambda mc: mc[0].key(),
                                         reverse=True)],
            "text": format_poly(f, table),
        })
    return out


def build_report(problem, state, tables, checker_block):
    table = state.table
    versal = {}
    for label in state.algebra.monomial_basis():
        phi = state.system.get(label)
        if phi is None or phi.is_zero():
            continue
        versal[format_monomial(label, table)] = cochain_to_json(phi)
    orders = {str(n): _products_json(state, n, prods)
              for n, prods in sorted(state.products_log.items())}
    stabilized_at = state.max_relation_degree() or 2
    return {
        "schema": SCHEMA_REPORT,
        "problem": problem.to_json(),
        "ext_table": tables,
        "generators": [format_arrow(a, table) for a in table.all_arrows()],
        "orders": orders,
        "relations": relations_json(state),
        "basis": {str(d): [format_monomial(m, table)
                           for m in state.algebra.basis_of_degree(d)]
                  for d in range(1, state.order)},
        "versal_family": versal,
        "stabilized": state.stabilized,
        "stabilized_at": stabilized_at if state.stabilized else None,
        "final_order": state.order,
        "certificate": state.certificate,
        "checker": checker_block,
    }


def canonical_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def ext_table_lines(tables):
    """The printed Ext^1 and Ext^2 dimension tables, one line each row."""
    lines = ["ext^1 dimensions (entry [i][j] = dim Ext^1(M_i, M_j)):"]
    lines.extend("  " + " ".join(str(v) for v in row) for row in tables["ext1"])
    lines.append("ext^2 dimensions:")
    lines.extend("  " + " ".join(str(v) for v in row) for row in tables["ext2"])
    return lines


def text_presentation(report):
    """The text of ``presentation.txt``, rendered from a report alone."""
    lines = (["hull computation: %s" % problem_name(report["problem"]), ""]
             + ext_table_lines(report["ext_table"]) + [""])
    lines.append("generators: %s" % (", ".join(report["generators"]) or "(none)"))
    if report["relations"]:
        lines.append("relations:")
        lines.extend("  %(name)s: %(text)s" % rel for rel in report["relations"])
    else:
        lines.append("relations: (none; the hull is the free formal matrix ring)")
    lines.append("")
    if report["stabilized"]:
        lines.append("stabilized at order %d (d.d verified zero up to degree %d)"
                     % (report["stabilized_at"], report["certificate"]["verified_cutoff"]))
    else:
        lines.append("NOT stabilized within the order cap (order reached: %d)"
                     % report["final_order"])
    for n in sorted(report["orders"], key=int):
        entries = report["orders"][n]
        nonzero = [entry for entry in entries if entry["value"]]
        lines.append("order %s massey products: %d monomials, %d nonzero"
                     % (n, len(entries), len(nonzero)))
        for entry in nonzero:
            # one monomial's tags differ in their index alone: shorter is lower
            tags = sorted(entry["value"], key=lambda t: (len(t), t))
            lines.append("  <%s> = %s" % (entry["monomial"], " + ".join(
                "%s*%s" % (entry["value"][t], t) for t in tags)))
    return "\n".join(lines) + "\n"


def diff_reports(a, b):
    """Field-level structural diff; empty iff canonical forms are identical."""
    if a.get("schema") != b.get("schema"):
        raise SchemaMismatch("schemas %r and %r differ"
                             % (a.get("schema"), b.get("schema")))
    out = []

    def walk(path, va, vb):
        if isinstance(va, dict) and isinstance(vb, dict):
            for key in sorted(set(va) | set(vb)):
                walk(path + "/" + str(key), va.get(key), vb.get(key))
        elif isinstance(va, list) and isinstance(vb, list):
            if len(va) != len(vb):
                out.append({"path": path + "/#length", "a": len(va), "b": len(vb)})
            for k, (ia, ib) in enumerate(zip(va, vb)):
                walk(path + "/" + str(k), ia, ib)
        elif va != vb:
            out.append({"path": path, "a": va, "b": vb})

    walk("", a, b)
    return out


def _expect(ok, what):
    if not ok:
        raise ValidationError("malformed report %s" % what)


def _is_count_table(rows, p):
    return (isinstance(rows, list) and len(rows) == p
            and all(isinstance(row, list) and len(row) == p
                    and all(type(n) is int and n >= 0 for n in row) for row in rows))


def _read_relation(rel, table):
    """A report relation as a MatricPoly in the arrows of ``table``."""
    types = [[i, j] for i in range(1, table.p + 1) for j in range(1, table.p + 1)]
    arrows = [list(a) for a in table.all_arrows()]
    _expect(isinstance(rel, dict) and isinstance(rel.get("name"), str)
            and rel.get("type") in types and isinstance(rel.get("terms"), list),
            "relation %r" % (rel,))
    terms = {}
    for term in rel["terms"]:
        word = term.get("monomial") if isinstance(term, dict) else None
        _expect(isinstance(word, list) and word and all(a in arrows for a in word)
                and type(term.get("coeff")) in (str, int), "relation term %r" % (term,))
        try:
            coeff = Fraction(term["coeff"])
        except (ValueError, ZeroDivisionError):
            raise ValidationError("malformed report coeff %r" % term["coeff"])
        terms[Monomial.from_arrows([tuple(a) for a in word])] = coeff
    return MatricPoly(tuple(rel["type"]), terms)


def _read_versal_cochain(name, data, bundle):
    """(monomial, degree-1 cochain) of one versal family entry."""
    mono = parse_monomial(name, bundle.p)
    _expect(isinstance(data, dict) and data.get("degree") == 1
            and data.get("type") == list(mono.type), "versal cochain %s" % name)
    return mono, read_cochain(bundle, 1, mono.i, mono.j, data.get("mats"),
                              "report versal cochain %s" % name)


def _products_log(table, series, final_order):
    """Order n's products, n < ``final_order``: the series' coefficients at the
    degree-n basis monomials of the quotient by the series below degree n."""
    log = {}
    for n in range(2, final_order):
        below = [MatricPoly(f.type, {m: c for m, c in f.terms.items() if m.degree < n})
                 for f in series.values()]
        log[n] = {x: {tag: f.terms[x] for tag, f in series.items() if x in f.terms}
                  for x in build_quotient(table, below, n + 1).basis_of_degree(n)}
    return log


def verify_report(report):
    """Re-derive a saved report from its relations and versal family.

    Recomputes the Ext tables, reads the relations (each placed by the tag
    its name formats to) and the versal family back, checks that the family
    is flat over the hull they rebuild at ``final_order`` and certifies it
    with ``stabilization_certificate`` at the claimed cutoff, no less than a
    run's ``certificate_cutoff``.  From that state, with the product log the
    relations imply, ``build_report`` must rebuild the report: every field
    but ``problem``, ``checker`` and certificate keys the report leaves out.
    Returns (ok, list of messages).  A report whose contents do not have the
    shapes written by ``build_report`` raises ValidationError.
    """
    if report.get("schema") != SCHEMA_REPORT:
        raise SchemaMismatch("not a %s document" % SCHEMA_REPORT)
    missing = [key for key in ("problem", "ext_table", "relations", "versal_family")
               if key not in report]
    if missing:
        raise ValidationError("report lacks %s" % ", ".join(missing))
    problem = problem_from_json(report["problem"])
    bundle = problem.bundle
    p = bundle.p
    ext = report["ext_table"]
    counts = [ext.get(key) if isinstance(ext, dict) else None
              for key in ("ext1", "ext2")]
    _expect(all(_is_count_table(rows, p) for rows in counts), "ext_table")
    computer = ExtComputer(bundle, problem.options.ladder)
    tables = ext_tables(computer, p)
    if counts != list(tables.values()):
        return False, ["ext_table differs from the Ext dimensions recomputed at "
                       "degree bound %d" % computer.degree_bound]
    table = GeneratorTable(p, *({(i + 1, j + 1): rows[i][j] for i in range(p)
                                 for j in range(p)} for rows in counts))
    _expect(isinstance(report["relations"], list), "relations")
    tags = {format_tag(tag, table): tag for tag in table.rel_tags()}
    series = {tag: MatricPoly((tag.i, tag.j)) for tag in tags.values()}
    for rel in report["relations"]:
        f = _read_relation(rel, table)
        if rel["name"] in tags:
            series[tags[rel["name"]]] = f
    relations = [f for f in series.values() if not f.is_zero()]
    cert = report.get("certificate") or {}
    _expect(isinstance(cert, dict), "certificate")
    _expect(isinstance(report["versal_family"], dict), "versal_family")
    cochains = dict(_read_versal_cochain(name, data, bundle)
                    for name, data in report["versal_family"].items())
    final_order = report.get("final_order")
    # one basis key per degree before any quotient: an absurd order costs nothing
    if not (type(final_order) is int and isinstance(report.get("basis"), dict)
            and len(report["basis"]) == final_order - 1):
        return False, ["basis does not list the degrees below final_order"]
    derived = certificate_cutoff(problem.options.verify_cutoff, relations, cochains)
    cutoff = cert.get("verified_cutoff", derived)
    _expect(type(cutoff) is int and cutoff > 0, "verified_cutoff %r" % (cutoff,))
    if cutoff < derived:
        return False, ["certificate cutoff %d is below the derived cutoff %d"
                       % (cutoff, derived)]
    hull = build_quotient(table, relations, final_order)
    ok, failure = verify_lifted_complex(LiftedComplex(hull, bundle, cochains))
    if not ok:
        return False, ["versal family fails over the rebuilt hull at %s"
                       % format_monomial(failure[0], table)]
    flag, recomputed = stabilization_certificate(
        build_quotient(table, relations, cutoff + 1), bundle, relations, cochains)
    messages = ["versal family %s over the rebuilt quotient (cutoff %d)"
                % ("verifies" if flag else "does not stabilize", cutoff)]
    state = HullState(bundle=bundle, table=table, ext=None, options=problem.options,
                      order=final_order, algebra=hull, system=cochains, series=series,
                      products_log=_products_log(table, series, final_order),
                      stabilized=flag, certificate=recomputed)
    rebuilt = build_report(problem, state, tables, report.get("checker"))
    rebuilt["problem"] = report["problem"]
    rebuilt["certificate"] = {key: recomputed.get(key) for key in cert}
    wrong = diff_reports(dict(report, certificate=cert), rebuilt)
    if wrong:
        fields = sorted({d["path"].split("/")[1] for d in wrong})
        messages.append("the report's fields %s differ from the derived ones "
                        "(first at %s)" % (", ".join(fields), wrong[0]["path"]))
    return not wrong, messages
