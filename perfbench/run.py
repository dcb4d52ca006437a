"""ncdef benchmark: whole CLI invocations, one at a time, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run it from the repository root; it runs ncdef from ``src/`` with the
interpreter that runs this script and writes only under ``.perfbench_work/``.

With ``--trace 0`` it times a fresh interpreter that imports the CLI and
loads the workload's problem (``setup_s``), then runs the workload's
``ncdef`` command again and again for ``--seconds`` seconds: a closed loop
with one client, each invocation a child process reaped with ``os.wait4`` so
that its wall time, peak RSS and CPU time are its own.  With ``--trace 1``
it runs the same command inside ``layer_trace.py`` instead, alternating
traced and untraced passes, and reports the per-layer times and counts.

Every invocation's output is checked: exit code 0, the sha256 of
``report.json`` (``run``) or of the ``--json`` output (``ext``) equal to the
one recorded in ``expected.json``, and a structural check of the result.
``--record`` rewrites ``expected.json`` from the current code, after the
structural checks pass.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
those ``BENCHMARK.json`` lists under ``end_to_end`` (trace 0) or
``per_layer`` (trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"

# Each workload puts nearly all of its time in one layer and almost none in
# the layers the other two stress, so each optimisation has one workload that
# shows it and others on which the prediction is "no change".
WORKLOADS = {
    # matrix_ring: the truncated-quotient build of the order step, orders 2..7
    "weyl2-order7": ("run", ["--preset", "weyl2-simple4", "--no-early-stop",
                             "--max-order", "7"]),
    # yoneda: Ext representatives computed and lifted at degree bound 12
    "weyl2-ext12": ("ext", ["--preset", "weyl2-simple4", "--computed-basis",
                            "--degree-bound", "12"]),
    # yoneda order-step solves: project_ext2 on the order-2 obstructions of
    # the point of 3-space (one vertex, three loops)
    "poly3-proj12": ("run", ["--spec", "SPEC", "--degree-bound", "12"]),
}

# --seed permutes the variables of the poly3 spec; seed 0 keeps x, y, z.
# The two weyl2 workloads have no random input and ignore the seed.
DEFAULT_SEED = 0
POLY3_PERMUTATIONS = list(itertools.permutations(("x", "y", "z")))

SETUP_PER_ROUND = 4
CHILD_TIMEOUT_S = 100.0

WEYL2_EXT = {"ext1": [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]],
             "ext2": [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]}
WEYL2_RELATIONS = ["x13*x34 - x12*x24", "x24*x43 - x21*x13",
                   "x31*x12 - x34*x42", "x42*x21 - x43*x31"]

SETUP_CODE = """
import json, sys
import ncdef.cli
from ncdef.presets import RunOptions, load_preset, problem_from_json
kind, source = sys.argv[1:3]
if kind == "--preset":
    load_preset(source, RunOptions())
else:
    with open(source) as fh:
        problem_from_json(json.load(fh), RunOptions())
"""


class Inputs:
    """The command line and the expected output of one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.command, args = WORKLOADS[workload]
        self.key = workload
        if workload == "poly3-proj12":
            perm = POLY3_PERMUTATIONS[seed % len(POLY3_PERMUTATIONS)]
            self.key = "%s/%s" % (workload, "".join(perm))
            spec = permuted_spec(json.loads((BENCH / "poly3.json").read_text()),
                                 dict(zip(("x", "y", "z"), perm)))
            path = WORK / "poly3.json"
            path.write_text(json.dumps(spec, indent=1))
            args = [str(path) if a == "SPEC" else a for a in args]
        self.args = args
        self.source = args[:2]  # --preset NAME or --spec PATH

    def argv(self, out_dir):
        if self.command == "run":
            return ["run"] + self.args + ["--out", str(out_dir)]
        return ["ext"] + self.args + ["--json"]


def permuted_spec(spec, rename):
    """The spec with its variables renamed: an isomorphic problem."""
    def sub(value):
        if isinstance(value, str):
            return "".join(rename.get(ch, ch) for ch in value)
        if isinstance(value, list):
            return [sub(v) for v in value]
        if isinstance(value, dict):
            return {sub(k): sub(v) for k, v in value.items()}
        return value
    out = dict(spec)
    out["algebra"] = sub(spec["algebra"])
    out["modules"] = [dict(m, ideal=sub(m["ideal"]), diffs=sub(m["diffs"]))
                      for m in spec["modules"]]
    return out


# -- structural checks: each returns a list of problems, empty when correct

def check_weyl2_order7(report):
    problems = []
    if report.get("ext_table") != WEYL2_EXT:
        problems.append("ext tables differ")
    if [r["text"] for r in report.get("relations", [])] != WEYL2_RELATIONS:
        problems.append("relations are not the four binomials")
    if report.get("stabilized_at") != 2 or report.get("final_order") != 8:
        problems.append("not stabilized at order 2 and run to order 8")
    return problems


def check_weyl2_ext12(doc):
    return [] if doc.get("ext_table") == WEYL2_EXT else ["ext tables differ"]


def check_poly3(report):
    problems = []
    if report.get("ext_table") != {"ext1": [[3]], "ext2": [[3]]}:
        problems.append("Ext dimensions are not [[3]] and [[3]]")
    pairs = set()
    for rel in report.get("relations", []):
        terms = rel["terms"]
        coeffs = sorted(t["coeff"] for t in terms)
        monos = [t["monomial"] for t in terms]
        if (coeffs != ["-1", "1"] or len(monos[0]) != 2
                or monos[0] != monos[1][::-1] or monos[0][0] == monos[0][1]):
            problems.append("relation %s is not a commutator" % rel.get("text"))
        pairs.add(frozenset(map(tuple, monos[0])))
    if len(report.get("relations", [])) != 3 or len(pairs) != 3:
        problems.append("not three commutators of distinct generator pairs")
    if report.get("stabilized") is not True or report.get("stabilized_at") != 2:
        problems.append("not stabilized at order 2")
    return problems


CHECKS = {"weyl2-order7": check_weyl2_order7, "weyl2-ext12": check_weyl2_ext12,
          "poly3-proj12": check_poly3}


def structural(workload, doc):
    try:
        return CHECKS[workload](doc)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return ["malformed output: %r" % exc]


# -- child processes

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, stdout_path):
    """Run one child to exit; returns (exit code, wall s, peak RSS MB, CPU s).

    The child is reaped with wait4 so the resource usage is this child's
    alone (RUSAGE_CHILDREN would be a maximum over every child so far).
    """
    err_path = WORK / "stderr"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        reaped = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                if not poller.poll(CHILD_TIMEOUT_S * 1000):
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                os.close(pidfd)
        finally:
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code != 0:
        err = err_path.read_text(errors="replace").strip()
        print("child %s exited %d: %s" % (cmd[1:3], code, err[-500:]), file=sys.stderr)
    return code, wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_of(inputs, out_dir, stdout_path):
    """(digest, parsed document) of one invocation's checked output."""
    path = out_dir / "report.json" if inputs.command == "run" else stdout_path
    return sha256_file(path), json.loads(Path(path).read_text())


def verdict(inputs, digest, doc, expected):
    """Problems with one invocation's output, empty when it is correct."""
    problems = structural(inputs.workload, doc) if doc is not None else []
    want = expected.get(inputs.key)
    if want is None:
        problems.append("no digest recorded for %s" % inputs.key)
    elif digest != want:
        problems.append("digest %s differs from the recorded %s" % (digest[:12], want[:12]))
    return problems


def run_ncdef(inputs):
    """One ncdef invocation: (problems, digest, document, wall s, RSS MB, CPU s)."""
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout_path = WORK / "stdout"
    cmd = [sys.executable, "-m", "ncdef.cli"] + inputs.argv(out_dir)
    code, wall, rss, cpu = run_child(cmd, stdout_path)
    digest = doc = None
    problems = ["exit code %d" % code] if code != 0 else []
    if not problems:
        try:
            digest, doc = output_of(inputs, out_dir, stdout_path)
        except (OSError, ValueError) as exc:
            problems = ["unreadable output: %s" % exc]
    return problems, digest, doc, wall, rss, cpu


def invoke(inputs, expected):
    """One checked ncdef invocation: (ok, wall s, peak RSS MB, CPU s)."""
    problems, digest, doc, wall, rss, cpu = run_ncdef(inputs)
    if not problems:
        problems = verdict(inputs, digest, doc, expected)
    for problem in problems:
        print("%s: %s" % (inputs.key, problem), file=sys.stderr)
    return not problems, wall, rss, cpu


def setup_sample(inputs):
    cmd = [sys.executable, "-c", SETUP_CODE] + inputs.source
    code, wall, _, _ = run_child(cmd, WORK / "setup.out")
    return code == 0, wall


# -- the two kinds of run

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_end_to_end(inputs, seconds, expected):
    attempted = failed = 0
    setup, samples = [], []
    start = time.perf_counter()
    rounds = []
    # Rounds of set-up samples and one invocation; start another round only
    # if a typical round would end within the run.  Spreading the set-up
    # samples over the run keeps a short slow spell of the host from hitting
    # all of them.
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        began = time.perf_counter()
        for _ in range(SETUP_PER_ROUND):
            ok, wall = setup_sample(inputs)
            attempted += 1
            failed += not ok
            setup.append(wall)
        ok, wall, rss, cpu = invoke(inputs, expected)
        attempted += 1
        failed += not ok
        samples.append((ok, wall, rss, cpu))
        rounds.append(time.perf_counter() - began)
    good = [s for s in samples if s[0]] or samples
    walls = [s[1] for s in good]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s[2] for s in good),
    }
    invocations = len(samples)
    print("%s: %d invocations, %d failed (failed_frac %.3f); wall_s %s; "
          "cpu_s median %.4f; setup_s quartiles %s over %d"
          % (inputs.key, invocations, invocations - len([s for s in samples if s[0]]),
             failed / attempted, fmt(s[1] for s in samples),
             statistics.median(s[3] for s in good), fmt(quartiles(setup)),
             len(setup)))
    return attempted, failed, metrics


def trace_pass(inputs, mode, expected):
    """One in-process invocation under layer_trace.py: (problems, document)."""
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_json = WORK / ("%s.json" % mode)
    cmd = ([sys.executable, str(BENCH / "layer_trace.py"), str(out_json), mode, "--"]
           + inputs.argv(out_dir))
    code, _, _, _ = run_child(cmd, WORK / "stdout")
    if code != 0:
        return ["layer_trace exited %d" % code], None
    doc = json.loads(out_json.read_text())
    if doc["exit"] != 0:
        return ["ncdef exited %d" % doc["exit"]], doc
    digest, report = doc["stdout_sha256"], None
    if inputs.command == "run":
        try:
            digest, report = output_of(inputs, out_dir, None)
        except (OSError, ValueError) as exc:
            return ["unreadable output: %s" % exc], doc
    problems = verdict(inputs, digest, report, expected)
    if mode == "traced":
        times = doc["times"]
        covered = sum(v for k, v in times.items()
                      if k.endswith(".self_s") and k.count(".") == 1)
        if abs(covered - doc["wall_s"]) > 1e-6 * max(1.0, doc["wall_s"]):
            problems.append("self times sum to %r, traced wall is %r"
                            % (covered, doc["wall_s"]))
    return problems, doc


def measure_layers(inputs, seconds, expected):
    """Alternate traced and untraced passes; at least two traced ones."""
    attempted = failed = 0
    traced, plain = [], []
    plan = itertools.chain(["traced", "plain", "traced"],
                           itertools.cycle(["plain", "traced"]))
    start = time.perf_counter()
    passes = []
    for mode in plan:
        if (len(traced) >= 2 and plain and time.perf_counter() - start
                + statistics.median(passes) > seconds):
            break
        began = time.perf_counter()
        problems, doc = trace_pass(inputs, mode, expected)
        passes.append(time.perf_counter() - began)
        attempted += 1
        for problem in problems:
            print("%s (%s): %s" % (inputs.key, mode, problem), file=sys.stderr)
        if problems:
            failed += 1
            break
        (traced if mode == "traced" else plain).append(doc)
    if failed:
        return attempted, failed, None
    counts = traced[0]["counts"]
    for doc in traced[1:]:
        if doc["counts"] != counts:
            diff = sorted(k for k in counts if counts[k] != doc["counts"].get(k))
            print("%s: counts differ between traced passes: %s"
                  % (inputs.key, ", ".join(diff)), file=sys.stderr)
            failed += 1
    # Times come from the median traced pass (the mean of the middle two
    # when even), so that they still add up to its wall.
    traced.sort(key=lambda d: d["wall_s"])
    middle = traced[(len(traced) - 1) // 2:len(traced) // 2 + 1]
    metrics = dict(counts)
    for name in traced[0]["times"]:
        metrics[name] = statistics.mean(d["times"][name] for d in middle)
    metrics["trace.untraced_wall_s"] = statistics.median(d["wall_s"] for d in plain)
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                      / metrics["trace.untraced_wall_s"] - 1)
    print("%s: %d traced and %d untraced passes, traced wall %s, untraced %s"
          % (inputs.key, len(traced), len(plain),
             fmt(quartiles([d["wall_s"] for d in traced])),
             fmt(quartiles([d["wall_s"] for d in plain]))))
    return attempted, failed, metrics


def fmt(values):
    return "/".join("%.4f" % v for v in values)


def record():
    """Rewrite expected.json: one run per workload and poly3 permutation."""
    expected = {}
    for workload in WORKLOADS:
        seeds = range(len(POLY3_PERMUTATIONS)) if workload == "poly3-proj12" else [0]
        for seed in seeds:
            inputs = Inputs(workload, seed)
            problems, digest, doc, _, _, _ = run_ncdef(inputs)
            problems = problems or structural(workload, doc)
            if problems:
                print("%s: %s" % (inputs.key, "; ".join(problems)), file=sys.stderr)
                return 1
            expected[inputs.key] = digest
            print("%s %s" % (inputs.key, digest))
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current code")
    args = parser.parse_args(argv)
    # Leave through the finally blocks, which stop and reap any child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ncdef" / "cli.py").is_file():
        print("perfbench: no ncdef sources under %s; run from the repository root"
              % SRC, file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("give --workload or --record")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.record:
            return record()
        expected = json.loads(EXPECTED.read_text())
        inputs = Inputs(args.workload, args.seed)
        measure = measure_layers if args.trace else measure_end_to_end
        attempted, failed, values = measure(inputs, args.seconds, expected)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    if values is None:  # a traced pass failed: report the listed metrics as 0
        values = {m["name"]: 0 for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    for m in wanted:
        print("%-48s %s %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
