"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

They use small ncdef problems so that they finish in seconds; the benchmark
runs the same checks on its real workloads in every ``--trace 1`` run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layer_trace  # noqa: E402
import run  # noqa: E402

SMALL_RUNS = [
    ["run", "--preset", "weyl2-simple4", "--max-order", "3", "--no-early-stop"],
    ["ext", "--preset", "weyl2-simple4", "--computed-basis", "--json"],
]


def traced_pass(tmp_path, args, name):
    out = tmp_path / name
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH / "layer_trace.py"), str(out),
                    "traced", "--"] + args, check=True, env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def test_every_import_site_is_patched_and_restored():
    import ncdef.checker
    import ncdef.cli
    import ncdef.massey
    import ncdef.yoneda

    before = {(m.__name__, k): v for m in (ncdef.checker, ncdef.cli,
                                           ncdef.massey, ncdef.yoneda)
              for k, v in vars(m).items()}
    computed = vars(ncdef.yoneda.ExtBasis)["computed"]
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        sites = tracer.sites
        assert set(sites["algebra.multiply"]) == {
            "algebra.multiply", "yoneda.multiply", "checker.multiply"}
        assert set(sites["linalg.solve_sparse"]) == {
            "linalg.solve_sparse", "yoneda.solve_sparse", "checker.solve_sparse"}
        for name in ("checker.curvature", "checker.verify_lifted_complex",
                     "matrix_ring.build_quotient",
                     "matrix_ring.build_tagged_truncation",
                     "matrix_ring.quotient_by_vectors", "yoneda.is_cocycle",
                     "yoneda.project_ext2", "yoneda.solve_coboundary"):
            assert "massey." + name.split(".")[1] in sites[name]
        for name in ("massey.compute_hull", "report.ext_tables",
                     "report.build_report", "report.canonical_json",
                     "report.text_presentation", "presets.load_preset",
                     "presets.problem_from_json"):
            assert "cli." + name.split(".")[1] in sites[name]
        for name in ("matrix_ring.build_quotient", "matrix_ring.monomials_of_degree"):
            assert "report." + name.split(".")[1] in sites[name]
        assert ncdef.massey.project_ext2 is not before[("ncdef.massey", "project_ext2")]
    finally:
        tracer.restore()
    after = {(m.__name__, k): v for m in (ncdef.checker, ncdef.cli,
                                          ncdef.massey, ncdef.yoneda)
             for k, v in vars(m).items()}
    assert after == before
    assert vars(ncdef.yoneda.ExtBasis)["computed"] is computed


def test_counts_repeat_and_self_times_cover_the_wall(tmp_path):
    for k, args in enumerate(SMALL_RUNS):
        first = traced_pass(tmp_path, args, "a%d.json" % k)
        second = traced_pass(tmp_path, args, "b%d.json" % k)
        assert first["exit"] == 0
        assert first["counts"] == second["counts"]
        assert first["stdout_sha256"] == second["stdout_sha256"]
        times = first["times"]
        covered = sum(v for name, v in times.items()
                      if name.endswith(".self_s") and name.count(".") == 1)
        assert abs(covered - first["wall_s"]) < 1e-9 * max(1.0, first["wall_s"])


def test_traced_and_plain_runs_print_the_same(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = set()
    for mode in ("plain", "traced"):
        out = tmp_path / mode
        subprocess.run([sys.executable, str(BENCH / "layer_trace.py"), str(out),
                        mode, "--"] + SMALL_RUNS[1], check=True, env=env, cwd=ROOT)
        digests.add(json.loads(out.read_text())["stdout_sha256"])
    assert len(digests) == 1


def test_every_poly3_permutation_is_the_same_problem_renamed():
    spec = json.loads((BENCH / "poly3.json").read_text())
    seen = set()
    for perm in run.POLY3_PERMUTATIONS:
        renamed = run.permuted_spec(spec, dict(zip("xyz", perm)))
        assert renamed["algebra"]["generators"] == list(perm)
        assert sorted(renamed["modules"][0]["ideal"]) == ["x", "y", "z"]
        seen.add(json.dumps(renamed, sort_keys=True))
    assert len(seen) == 6
    assert run.permuted_spec(spec, {}) == spec


def test_structural_checks_reject_wrong_answers():
    good = {"ext_table": {"ext1": [[3]], "ext2": [[3]]}, "stabilized": True,
            "stabilized_at": 2, "relations": [
                {"text": "r%d" % k, "terms": [
                    {"coeff": "-1", "monomial": [b, a]},
                    {"coeff": "1", "monomial": [a, b]}]}
                for k, (a, b) in enumerate([([1, 1, 1], [1, 1, 2]),
                                            ([1, 1, 1], [1, 1, 3]),
                                            ([1, 1, 2], [1, 1, 3])])]}
    assert run.check_poly3(good) == []
    assert run.check_poly3(dict(good, stabilized_at=3))
    assert run.check_poly3(dict(good, relations=good["relations"][:2]))
    assert run.check_weyl2_ext12({"ext_table": {"ext1": [[1]], "ext2": [[1]]}})


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "weyl2-order7", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
