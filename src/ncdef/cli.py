"""Command line interface.

Subcommands: run (full hull computation), ext (dimension tables), massey
(immediate product for a named monomial), verify (re-check a saved report),
diff (compare two reports).  Exit codes: 0 success, 2 validation failure,
3 solver bound exhausted, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import format_scalar
from .errors import (InternalInvariantError, NcdefError, SolverBoundError,
                     ValidationError)
from .massey import compute_hull, immediate_massey
from .matrix_ring import format_monomial, format_tag, parse_monomial
from .presets import RunOptions, load_preset, preset_names, problem_from_json
from .report import (build_report, canonical_json, diff_reports, ext_table_lines,
                     ext_tables, text_presentation, verify_report)
from .yoneda import ExtBasis, ExtComputer

EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4


def _read_json_object(path, what):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError("cannot read %s %s: %s" % (what, path, exc))
    if not isinstance(data, dict):
        raise ValidationError("%s %s is not a JSON object" % (what, path))
    return data


def _load_problem(args):
    """The problem, run with its spec's options and the flags given over them."""
    flags = {key: getattr(args, key, None)
             for key in ("max_order", "degree_bound", "verify_cutoff")}
    flags = {key: value for key, value in flags.items() if value is not None}
    if getattr(args, "computed_basis", False):
        flags["use_computed_basis"] = True
    if getattr(args, "no_early_stop", False):
        flags["stop_on_stabilized"] = False
    if args.preset and args.spec:
        raise ValidationError("give --preset or --spec, not both")
    if args.preset:
        return load_preset(args.preset, RunOptions.from_json(flags))
    if args.spec:
        data = _read_json_object(args.spec, "spec")
        spec_options = data.get("options") or {}
        if not isinstance(spec_options, dict):
            raise ValidationError("spec options must be a JSON object")
        return problem_from_json(data, RunOptions.from_json({**spec_options,
                                                             **flags}))
    raise ValidationError("give --preset or --spec (presets: %s)"
                          % ", ".join(preset_names()))


def _ext_computer(problem):
    """The problem's Ext computer and its given basis, certified; None for
    the basis when it is to be computed."""
    opts = problem.options
    computer = ExtComputer(problem.bundle, opts.ladder)
    basis = None
    if problem.preset_basis is not None and not opts.use_computed_basis:
        basis = problem.preset_basis
        basis.certify(computer)
    return computer, basis


def _ext_setup(problem):
    """Certified basis and dimension tables for a problem."""
    computer, basis = _ext_computer(problem)
    if basis is None:
        # ext_basis certifies each entry as it computes it
        basis = ExtBasis.computed(computer)
    tables = ext_tables(computer, problem.p)
    return basis, tables


def cmd_run(args):
    problem = _load_problem(args)
    basis, tables = _ext_setup(problem)
    state = compute_hull(basis, problem.options)
    checker_block = {
        "verified": True,
        "orders_verified": sorted(state.products_log),
        "basis_source": basis.source,
    }
    report = build_report(problem, state, tables, checker_block)
    text = text_presentation(report)
    if args.out:
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "report.json").write_text(canonical_json(report))
            (outdir / "presentation.txt").write_text(text)
        except OSError as exc:
            raise ValidationError("cannot write reports to %s: %s" % (outdir, exc))
    if args.json:
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(text)
    return 0


def cmd_ext(args):
    problem = _load_problem(args)
    computer, basis = _ext_computer(problem)
    if basis is None:
        # the tables need no Yoneda lifts: picking the Hom-complex classes
        # checks each dimension against the kernel
        for i in range(1, problem.p + 1):
            computer.hom_classes(i)
    tables = ext_tables(computer, problem.p)
    if args.json:
        sys.stdout.write(canonical_json({"schema": "ncdef-ext/1",
                                         "problem": problem.to_json(),
                                         "ext_table": tables}))
    else:
        print("\n".join(ext_table_lines(tables)))
    return 0


def cmd_massey(args):
    problem = _load_problem(args)
    basis, tables = _ext_setup(problem)
    mono = parse_monomial(args.monomial, problem.p)
    cochains = {}
    for arrow in set(mono.arrows):
        i, j, l = arrow
        reps = basis.ext1.get((i, j), [])
        if l > len(reps):
            raise ValidationError("no Ext^1 generator %s" % (arrow,))
        cochains[arrow] = reps[l - 1]
    value = immediate_massey(mono, cochains, basis, problem.options)
    table = basis.table()
    if value.defined:
        parts = {format_tag(t, table): format_scalar(c)
                 for t, c in sorted(value.coefficients.items())}
        payload = {"defined": True, "monomial": args.monomial, "value": parts}
    else:
        payload = {"defined": False, "monomial": args.monomial,
                   "failed_at": format_monomial(value.failed_at, table)}
    if args.json:
        sys.stdout.write(canonical_json(payload))
    elif value.defined:
        shown = " + ".join("%s*%s" % (c, t) for t, c in
                           sorted(payload["value"].items())) or "0"
        print("<%s> = %s" % (args.monomial, shown))
    else:
        print("<%s> is undefined: no defining system extends past %s"
              % (args.monomial, payload["failed_at"]))
    return 0


def cmd_verify(args):
    ok, messages = verify_report(_read_json_object(args.report, "report"))
    for message in messages:
        print(message)
    if not ok:
        raise InternalInvariantError("report verification failed")
    print("report verifies")
    return 0


def cmd_diff(args):
    diffs = diff_reports(_read_json_object(args.report_a, "report"),
                         _read_json_object(args.report_b, "report"))
    if args.json:
        sys.stdout.write(canonical_json({"schema": "ncdef-diff/1",
                                         "differences": diffs}))
    else:
        if not diffs:
            print("reports are identical")
        for d in diffs:
            print("%s: %r != %r" % (d["path"], d["a"], d["b"]))
    return 0 if not diffs else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncdef",
        description="Pro-representing hulls of noncommutative deformation "
                    "functors via matric Massey products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--preset", help="built-in problem (%s)"
                       % ", ".join(preset_names()))
        p.add_argument("--spec", help="JSON problem spec file")
        p.add_argument("--max-order", type=int, dest="max_order")
        p.add_argument("--degree-bound", type=int, dest="degree_bound")
        p.add_argument("--verify-cutoff", type=int, dest="verify_cutoff")
        p.add_argument("--computed-basis", action="store_true",
                       dest="computed_basis",
                       help="derive Ext representatives instead of using the "
                            "preset's")
        p.add_argument("--json", action="store_true")
        if with_out:
            p.add_argument("--out", help="directory for report.json and "
                                         "presentation.txt")

    p_run = sub.add_parser("run", help="compute the hull and write reports")
    common(p_run)
    p_run.add_argument("--no-early-stop", action="store_true",
                       dest="no_early_stop",
                       help="iterate to --max-order even after stabilization")
    p_run.set_defaults(func=cmd_run)

    p_ext = sub.add_parser("ext", help="print the Ext dimension tables")
    common(p_ext, with_out=False)
    p_ext.set_defaults(func=cmd_ext)

    p_massey = sub.add_parser("massey",
                              help="immediate matric Massey product")
    common(p_massey, with_out=False)
    p_massey.add_argument("--monomial", required=True,
                          help="e.g. x12*x24")
    p_massey.set_defaults(func=cmd_massey)

    p_verify = sub.add_parser("verify", help="re-check a saved report")
    p_verify.add_argument("report")
    p_verify.set_defaults(func=cmd_verify)

    p_diff = sub.add_parser("diff", help="structural diff of two reports")
    p_diff.add_argument("report_a")
    p_diff.add_argument("report_b")
    p_diff.add_argument("--json", action="store_true")
    p_diff.set_defaults(func=cmd_diff)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except SolverBoundError as exc:
        print("solver bound exhausted: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except InternalInvariantError as exc:
        print("internal invariant violated: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except NcdefError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
