import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncdef import algebra, massey
from ncdef.cli import main
from ncdef.errors import ProjectionFailed, UnsupportedIdeal, ValidationError
from ncdef.presets import RunOptions, problem_from_json

SRC = Path(__file__).resolve().parent.parent / "src"


def test_run_weyl_preset(tmp_path, capsys):
    out = tmp_path / "run1"
    code = main(["run", "--preset", "weyl2-simple4", "--max-order", "5",
                 "--out", str(out)])
    assert code == 0
    text = (out / "presentation.txt").read_text()
    assert "x13*x34 - x12*x24" in text
    assert "stabilized at order 2" in text
    report = json.loads((out / "report.json").read_text())
    assert report["stabilized"] is True
    assert report["stabilized_at"] == 2
    assert len(report["relations"]) == 4
    assert report["checker"]["verified"] is True


def test_run_byte_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--preset", "weyl2-simple4", "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_ext_subcommand(capsys):
    assert main(["ext", "--preset", "weyl2-simple4"]) == 0
    captured = capsys.readouterr().out
    assert "ext^1 dimensions" in captured
    assert "0 1 1 0" in captured
    assert "0 0 0 1" in captured


def test_ext_json(capsys):
    assert main(["ext", "--preset", "poly1-point", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ext_table"]["ext1"] == [[1]]
    assert payload["ext_table"]["ext2"] == [[0]]


def test_massey_subcommand(capsys):
    assert main(["massey", "--preset", "weyl2-simple4",
                 "--monomial", "x12*x24"]) == 0
    out = capsys.readouterr().out
    assert "<x12*x24> = -1*y14" in out


def test_massey_json_prints_scalars_as_reports_do(capsys):
    assert main(["massey", "--preset", "weyl2-simple4", "--monomial", "x12*x24",
                 "--json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "defined": true,\n  "monomial": "x12*x24",\n'
        '  "value": {\n    "y14": "-1"\n  }\n}\n')


def test_massey_undefined(capsys):
    assert main(["massey", "--preset", "weyl2-simple4",
                 "--monomial", "x12*x24*x43"]) == 0
    out = capsys.readouterr().out
    assert "undefined" in out and "x12*x24" in out


def test_malformed_spec_fails_validation(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text("{ not json")
    out = tmp_path / "never"
    code = main(["run", "--spec", str(spec), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_spec_without_modules_fails(tmp_path):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"schema": "ncdef-problem/1",
                                "algebra": "weyl2", "modules": []}))
    assert main(["run", "--spec", str(spec)]) == 2


def test_spec_without_differential_fails_validation(tmp_path, capsys):
    # a module resolved by L_0 = A alone has no d_0 to check or pad
    spec = {
        "schema": "ncdef-problem/1",
        "name": "free-line",
        "algebra": {"generators": ["x"], "rules": [], "weights": {"x": 1}},
        "modules": [{"name": "A", "ideal": [], "ranks": [1], "diffs": []}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


def test_inline_spec_round_trip(tmp_path, capsys):
    # the two point modules over the one-variable Weyl algebra: a rank-one
    # extension in each direction, no obstructions
    spec = {
        "schema": "ncdef-problem/1",
        "name": "weyl1-points",
        "algebra": {"generators": ["x", "Dx"],
                    "rules": [["Dx*x", "x*Dx + 1"]],
                    "weights": {"x": 1, "Dx": 1}},
        "modules": [{"name": "M", "ideal": ["Dx"],
                     "ranks": [1, 1], "diffs": [[["Dx"]]]},
                    {"name": "N", "ideal": ["x"],
                     "ranks": [1, 1], "diffs": [[["x"]]]}],
        "options": {"max_order": 3},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ext_table"]["ext1"] == [[0, 1], [1, 0]]
    assert report["ext_table"]["ext2"] == [[0, 0], [0, 0]]
    assert report["relations"] == []
    assert report["stabilized"] is True


def test_diff_self_empty(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["run", "--preset", "weyl2-simple4", "--out", str(out)]) == 0
    rep = str(out / "report.json")
    assert main(["diff", rep, rep]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_localizes_max_order(tmp_path, capsys):
    paths = []
    for max_order in (2, 4):
        out = tmp_path / ("o%d" % max_order)
        assert main(["run", "--preset", "weyl2-simple4",
                     "--max-order", str(max_order), "--out", str(out)]) == 0
        paths.append(out / "report.json")
    capsys.readouterr()  # drop the run presentations
    code = main(["diff", str(paths[0]), str(paths[1]), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["differences"]
    for diff in payload["differences"]:
        assert diff["path"].startswith("/problem/options/max_order")
    # relations and stabilization agree between the two runs
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    assert a["relations"] == b["relations"]
    assert a["stabilized"] and b["stabilized"]


def test_diff_localizes_corrupted_relations(tmp_path, capsys):
    out = tmp_path / "good"
    assert main(["run", "--preset", "weyl2-simple4", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    report["relations"][0]["terms"][0]["coeff"] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report, sort_keys=True, indent=2))
    capsys.readouterr()  # drop the run presentation
    assert main(["diff", str(out / "report.json"), str(bad)]) == 1
    shown = capsys.readouterr().out
    assert "/relations/" in shown
    for line in shown.strip().splitlines():
        assert line.startswith("/relations/")


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["run", "--preset", "weyl2-simple4", "--out", str(out)]) == 0
    assert main(["verify", str(out / "report.json")]) == 0
    assert "report verifies" in capsys.readouterr().out


def test_verify_rejects_corrupted_family(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["run", "--preset", "weyl2-simple4", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # flip a sign inside one versal cochain
    mats = report["versal_family"]["x12"]["mats"]
    mats[0] = [[entry if entry == "0" else "-" + entry for entry in row]
               for row in mats[0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report, sort_keys=True, indent=2))
    assert main(["verify", str(bad)]) == 4
    # a report that claims no stabilization still needs a flat family
    report.update(stabilized=False, stabilized_at=None)
    del report["certificate"]
    assert main(["verify", _write(tmp_path, "lowered.json", report)]) == 4
    assert "fails over the rebuilt hull" in capsys.readouterr().out


FLAGSHIP_REPORT = Path(__file__).parent / "golden" / "weyl2-simple4" / "report.json"
POLY3_SPEC = Path(__file__).parent / "specs" / "poly3.json"


def test_verify_derives_the_certificate_cutoff(tmp_path, capsys):
    # a cutoff below the last relation degree + 2 no longer verifies
    report = json.loads(FLAGSHIP_REPORT.read_text())
    report["certificate"]["verified_cutoff"] = 1
    report["stabilized_at"] = 7
    report["orders"] = {}
    assert main(["verify", _write(tmp_path, "low.json", report)]) == 4
    assert "below the derived cutoff 4" in capsys.readouterr().out
    # without a claimed cutoff, verify checks at the derived one
    report = json.loads(FLAGSHIP_REPORT.read_text())
    del report["certificate"]["verified_cutoff"]
    assert main(["verify", _write(tmp_path, "none.json", report)]) == 0
    assert "(cutoff 4)" in capsys.readouterr().out


def _bumped(value):
    """A different value of the same kind."""
    if isinstance(value, bool):
        return not value
    return value + 1 if isinstance(value, int) else value + "1"


# one same-kind edit of each field kind verify re-derives: a path into the
# report (None is the first key of an object) and the change made there
TAMPERED = {
    "certificate-verified_cutoff": (("certificate", "verified_cutoff"),
                                    lambda n: n - 1),
    "certificate-complete": (("certificate", "complete"), _bumped),
    "certificate-relation_degrees": (("certificate", "relation_degrees", 0), _bumped),
    "certificate-raw_square_terms": (("certificate", "raw_square_terms", None,
                                      0, 0, 0), _bumped),
    "certificate-reduces_to_zero": (("certificate", "reduces_to_zero"), _bumped),
    "generators": (("generators", -1), _bumped),
    "basis": (("basis", "1", -1), _bumped),
    "final_order": (("final_order",), _bumped),
    "stabilized": (("stabilized",), _bumped),
    "stabilized_at": (("stabilized_at",), _bumped),
    "relation-text": (("relations", 0, "text"), _bumped),
    "relation-name": (("relations", 0, "name"), _bumped),
    "orders-value": (("orders", "2", 1, "value", None), _bumped),
}


@pytest.mark.parametrize("golden", ["weyl2-simple4", "poly3"])
@pytest.mark.parametrize("field", sorted(TAMPERED))
def test_verify_rejects_each_edited_claim(golden, field, tmp_path, capsys):
    report = json.loads((FLAGSHIP_REPORT.parent.parent / golden
                         / "report.json").read_text())
    path, change = TAMPERED[field]
    node = report
    for key in path[:-1]:
        node = node[next(iter(node)) if key is None else key]
    key = next(iter(node)) if path[-1] is None else path[-1]
    node[key] = change(node[key])
    assert main(["verify", _write(tmp_path, "r.json", report)]) == 4
    assert "report verifies" not in capsys.readouterr().out


def test_report_of_a_run_that_did_not_stabilize_verifies(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["run", "--preset", "weyl2-simple4", "--max-order", "1",
                 "--out", str(out)]) == 0
    assert "NOT stabilized" in capsys.readouterr().out
    assert main(["verify", str(out / "report.json")]) == 0
    assert "report verifies" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["stabilized"] is False
    report["stabilized"] = True
    assert main(["verify", _write(tmp_path, "claimed.json", report)]) == 4
    assert "report verifies" not in capsys.readouterr().out


def test_spec_report_with_a_raised_cutoff_verifies(tmp_path, capsys):
    # the report repeats the spec without the flag, so verify derives a
    # smaller cutoff and checks the claimed one
    out = tmp_path / "r"
    assert main(["run", "--spec", str(POLY3_SPEC), "--verify-cutoff", "8",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["verified_cutoff"] == 8
    assert main(["verify", str(out / "report.json")]) == 0
    assert "(cutoff 8)" in capsys.readouterr().out


@pytest.mark.parametrize("value", [3, 10 ** 6])
def test_verify_recomputes_the_ext_tables(value, tmp_path, capsys):
    # a wrong dimension fails before the generator table is built, so an
    # absurd one costs nothing
    report = json.loads(FLAGSHIP_REPORT.read_text())
    report["ext_table"]["ext1"][0][0] = value
    assert main(["verify", _write(tmp_path, "r.json", report)]) == 4
    assert "ext_table differs" in capsys.readouterr().out


def test_verify_rejects_wrong_schema(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    code = main(["verify", str(path)])
    assert code == 2  # schema mismatch is a validation failure


def test_unknown_preset():
    assert main(["ext", "--preset", "nope"]) == 2


@pytest.mark.parametrize("command", ["ext", "run"])
def test_preset_together_with_spec_fails_validation(command, tmp_path, capsys):
    # neither source is dropped silently, whether or not the spec exists
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "poly1-point"}))
    for path in (spec, tmp_path / "missing.json"):
        assert main([command, "--preset", "poly1-point", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "validation error: give --preset or --spec, not both")


@pytest.mark.parametrize("sub", [None, "inner"])
def test_unwritable_out_fails_validation(sub, tmp_path, capsys):
    # --out names an existing file, or a directory below one
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if sub is None else taken / sub
    assert main(["run", "--preset", "poly1-point", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: cannot write reports to %s" % out)
    assert "Traceback" not in err
    assert taken.read_text() == ""


def test_verify_inline_spec_report(tmp_path, capsys):
    # length-one resolutions have zero-rank top components whose cochains
    # serialize as empty matrices; verify must rebuild their shapes
    spec = {
        "schema": "ncdef-problem/1",
        "name": "weyl1-points",
        "algebra": {"generators": ["x", "Dx"],
                    "rules": [["Dx*x", "x*Dx + 1"]],
                    "weights": {"x": 1, "Dx": 1}},
        "modules": [{"name": "M", "ideal": ["Dx"],
                     "ranks": [1, 1], "diffs": [[["Dx"]]]},
                    {"name": "N", "ideal": ["x"],
                     "ranks": [1, 1], "diffs": [[["x"]]]}],
        "options": {"max_order": 3},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "r"
    assert main(["run", "--spec", str(path), "--out", str(out)]) == 0
    assert main(["verify", str(out / "report.json")]) == 0


def test_run_computed_basis(tmp_path):
    out = tmp_path / "computed"
    code = main(["run", "--preset", "poly1-point", "--computed-basis",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checker"]["basis_source"] == "computed"
    assert report["relations"] == []


def test_preset_spec_round_trip(tmp_path, capsys):
    from ncdef.presets import _PRESETS, load_preset, problem_from_json
    for name in ("weyl2-simple4", "poly1-point"):
        problem = load_preset(name)
        again = problem_from_json(problem.to_json())
        assert again.name == problem.name
        assert again.to_json() == problem.to_json()
        assert again.bundle.p == problem.bundle.p
        # the preset's document, given as a spec file, runs the same problem
        spec = tmp_path / (name + ".json")
        spec.write_text(json.dumps({"schema": "ncdef-problem/1", "name": name,
                                    **_PRESETS[name]}))
        runs = []
        for source in (["--preset", name], ["--spec", str(spec)]):
            out = tmp_path / name / source[0][2:]
            assert main(["run", *source, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            report.pop("problem")
            runs.append(((out / "presentation.txt").read_text(), report))
        assert runs[0] == runs[1]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["ext", "--preset", "poly1-point", "--degree-bound", "-3"],
    ["ext", "--preset", "weyl2-simple4", "--degree-bound", "-1"],
    ["run", "--preset", "poly1-point", "--max-order", "-2"],
    ["run", "--preset", "poly1-point", "--verify-cutoff", "0"],
])
def test_bad_option_flags_fail_validation(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: option")
    assert "Traceback" not in err


def _preset_spec(tmp_path, options):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"schema": "ncdef-problem/1",
                                "preset": "poly1-point", "options": options}))
    return str(path)


@pytest.mark.parametrize("options", [
    {"degree_bound": "4"}, {"max_order": 0}, {"stop_on_stabilized": 1},
    {"verify_cutoff": 2.5}, {"nope": 1}, [["max_order", 3]],
])
def test_bad_spec_options_fail_validation(options, tmp_path, capsys):
    assert main(["ext", "--spec", _preset_spec(tmp_path, options)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["to_json", "__class__", "_fields"])
def test_options_named_after_attributes_are_unknown(name, tmp_path, capsys):
    with pytest.raises(ValidationError, match="unknown option"):
        RunOptions.from_json({name: 1})
    assert main(["ext", "--spec", _preset_spec(tmp_path, {name: 1})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: unknown option %r" % name)
    assert "Traceback" not in err


def test_cli_import_loads_no_dataclasses():
    # the records are namedtuples; dataclasses would load inspect (and with
    # it ast, dis and tokenize) into every invocation
    code = ("import sys, ncdef.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=str(SRC)),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_spec_options_apply_and_flags_override_them(tmp_path, capsys):
    spec = _preset_spec(tmp_path, {"max_order": 3, "stop_on_stabilized": False})
    assert main(["run", "--spec", spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["final_order"] == 4
    assert report["problem"]["options"]["max_order"] == 3
    assert main(["run", "--spec", spec, "--max-order", "4", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["final_order"] == 5
    assert report["problem"]["options"]["max_order"] == 4
    assert report["problem"]["options"]["stop_on_stabilized"] is False


@pytest.mark.parametrize("entry", [1.5, 2.0, True, None])
def test_inexact_differential_entry_fails_validation(entry, tmp_path, capsys):
    spec = {"schema": "ncdef-problem/1", "algebra": "poly1",
            "modules": [{"ideal": ["x"], "ranks": [1, 1], "diffs": [[[entry]]]}]}
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_verify_report_without_problem_fails_validation(tmp_path, capsys):
    path = _write(tmp_path, "r.json", {"schema": "ncdef-report/1"})
    assert main(["verify", path]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "diff"])
def test_report_that_is_not_an_object_fails_validation(command, tmp_path, capsys):
    path = _write(tmp_path, "r.json", [1, 2])
    argv = [command, path] + ([path] if command == "diff" else [])
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_spec_module_without_ideal_fails_validation(tmp_path, capsys):
    spec = json.loads((Path(__file__).parent / "specs" / "poly3.json").read_text())
    del spec["modules"][0]["ideal"]
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", ["e", "ex1"])
def test_malformed_idempotent_name_fails_validation(name, capsys):
    assert main(["massey", "--preset", "poly1-point", "--monomial", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


def _poly1_report(**fields):
    report = {"schema": "ncdef-report/1",
              "problem": {"schema": "ncdef-problem/1", "preset": "poly1-point"},
              "ext_table": {"ext1": [[1]], "ext2": [[0]]},
              "relations": [], "versal_family": {}}
    report.update(fields)
    return report


@pytest.mark.parametrize("report", [
    _poly1_report(ext_table={}),
    _poly1_report(relations=[{"type": [1], "terms": []}]),
    _poly1_report(versal_family={"x11": {"degree": 1, "type": [1, 1],
                                         "mats": [[["1/0"]], []]}}),
    _poly1_report(problem={"schema": "ncdef-problem/1", "preset": ["poly1-point"]}),
])
def test_verify_report_with_malformed_contents_fails_validation(report, tmp_path,
                                                                capsys):
    assert main(["verify", _write(tmp_path, "r.json", report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


def _poly3_spec():
    return json.loads(POLY3_SPEC.read_text())


@pytest.mark.parametrize("module", [
    {"ranks": 5},
    {"diffs": 5},
    {"ranks": [1, 1], "diffs": [[5]]},
    # a ragged d_0, and a d_0 of the wrong shape: bad input, not a broken invariant
    {"ranks": [1, 3], "diffs": [[["x"], ["y", "y"], ["z"]]]},
    {"ranks": [1, 1], "diffs": [[["x", "y"]]]},
    {"ideal": [["x"], "y", "z"]},
    {"nmae": "k"},
    # entries are element strings only: an exact JSON 0 for "0" once read as 0
    {"diffs": [[["x"], ["y"], ["z"]], [["y", "-x", 0], ["z", "0", "-x"], ["0", "z", "-y"]],
               [["z", "-y", "x"]]]},
])
def test_malformed_spec_resolution_fails_validation(module, tmp_path, capsys):
    spec = _poly3_spec()
    spec["modules"][0].update(module)
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("m, r, row, message", [
    (1, 0, ["y"], "module 1: ragged matrix rows"),
    (0, 0, ["w"], "module 1: cannot parse element 'w': unknown generator 'w'"),
], ids=["ragged-d1", "unknown-generator"])
def test_resolution_error_names_the_module_and_the_string(m, r, row, message,
                                                          tmp_path, capsys):
    # both messages once named neither the module nor the string
    spec = _poly3_spec()
    spec["modules"][0]["diffs"][m][r] = row
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err == "validation error: %s\n" % message


def test_resolution_error_keeps_its_class():
    spec = _poly3_spec()
    spec["modules"][0]["ideal"] = ["x", "y", "w"]
    with pytest.raises(UnsupportedIdeal, match="^module 1: ideal generator 'w'"):
        problem_from_json(spec)


def _poly3_algebra(**edits):
    return {**_poly3_spec()["algebra"], **edits}


@pytest.mark.parametrize("algebra, message", [
    pytest.param({}, "generators", id="algebra0"),
    pytest.param({"generators": "xyz"}, "generators", id="algebra1"),
    pytest.param(_poly3_algebra(generators=[["x"], "y", "z"]), "generators",
                 id="unhashable-generator"),
    pytest.param(_poly3_algebra(generators=["x", "y", "z", ""]), "generators",
                 id="empty-generator-name"),
    pytest.param(_poly3_algebra(rules=[["y*x", "x*y", "z"]]), "rules",
                 id="rule-of-three-words"),
    pytest.param(_poly3_algebra(rules=[["y*x", 0]]), "not a string",
                 id="rule-to-a-number"),
    pytest.param(_poly3_algebra(rules=[["y*x", "x*w"]]), "unknown generator",
                 id="rule-to-an-unknown-generator"),
    pytest.param(_poly3_algebra(weights=[1, 1, 1]), "weights", id="weights-list"),
    # z's weight would default to 1, and q's value was never read
    pytest.param(_poly3_algebra(weights={"x": 1, "y": 1, "zq": 5}), "unknown weight 'zq'",
                 id="weight-of-a-misspelled-generator"),
    pytest.param(_poly3_algebra(weights={"x": 1, "y": 1, "z": 1, "q": "junk"}),
                 "unknown weight 'q'", id="junk-weight-of-a-non-generator"),
    pytest.param(_poly3_algebra(wieghts={}), "unknown algebra key 'wieghts'",
                 id="unknown-key"),
])
def test_malformed_spec_algebra_fails_validation(algebra, message, tmp_path, capsys):
    spec = _poly3_spec()
    spec["algebra"] = algebra
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    ({"modules": 1.5}, "modules"),
    # a preset with a document of its own would run the preset
    ({"preset": "poly1-point"}, "unknown problem key 'algebra', 'modules'"),
    ({"ext_bassis": {}}, "unknown problem key 'ext_bassis'"),
], ids=["modules-not-a-list", "preset-and-document", "misspelled-key"])
def test_malformed_problem_keys_fail_validation(edit, message, tmp_path, capsys):
    spec = {**_poly3_spec(), **edit}
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err
    assert "Traceback" not in err


def test_preset_name_that_is_not_a_string_fails_validation(tmp_path, capsys):
    spec = {"schema": "ncdef-problem/1", "preset": ["poly1-point"]}
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "unknown preset" in err
    assert "Traceback" not in err


def test_fractional_exponent_fails_validation(tmp_path, capsys):
    # x^1/2 once read as x^0 = 1, so this d_0 entry silently read as x
    spec = _poly3_spec()
    spec["modules"][0]["diffs"][0][0] = ["x^1/2*x"]
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "exponent" in err
    assert "Traceback" not in err


MALFORMED_ELEMENTS = ["x^2^3", "x^", "x + ", "*x", "2*", "+", "", "x**y", "x y", "2 3",
                      "x+-y", "--x", "1/2/3", "+x", "2x", "1/0", "x^1000000000000",
                      "x^" + "9" * 5000, "7" * 5000 + "*x"]


@pytest.mark.parametrize("place", ["rule", "diff", "ext_basis"])
@pytest.mark.parametrize("text", MALFORMED_ELEMENTS,
                         ids=lambda text: text[:20] if text else "empty")
def test_malformed_element_string_exits_2_naming_it(text, place, tmp_path, capsys):
    # the token loop read most of these as something else (x^2^3 as 3*x^2,
    # "x y" as x*y, "+" and "" as 0), and x^1000000000000 ran out of memory
    spec = _poly3_spec()
    if place == "rule":
        spec["algebra"]["rules"][0][1] = text
    elif place == "diff":
        spec["modules"][0]["diffs"][0][0] = [text]
    else:
        spec["ext_basis"] = {"ext1": {"1,1": [{"mats": [[[text], ["0"], ["0"]]]}]}}
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and repr(text) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("ext_basis", [
    {"ext1": {"1,1": [{"mats": 5}]}},
    {"ext1": {"1-1": [{"mats": [[["1", "0", "0"]]]}]}},
    {"ext1": {"1,1": [{"mats": [[["1"], ["0", "0"], ["0"]]]}]}},
])
def test_malformed_spec_ext_basis_fails_validation(ext_basis, tmp_path, capsys):
    spec = _poly3_spec()
    spec["ext_basis"] = ext_basis
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


def test_spec_ext_basis_non_cocycle_fails_validation(tmp_path, capsys):
    # the right shape but not a cocycle: bad input, not a broken invariant
    spec = _poly3_spec()
    spec["ext_basis"] = {"ext1": {"1,1": [{"mats": [[["1"], ["0"], ["0"]]]}]}}
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "not a cocycle" in err
    assert "Traceback" not in err


def test_spec_ext_basis_above_the_degree_bound_fails_validation(tmp_path, capsys):
    # the weyl2-simple4 class of Ext^1(M2, M1) plus d(psi), psi_0 = x^9: a
    # cocycle of the right class whose terms reach degree 10, above bound 4
    resolutions = [(["Dx", "Dy"], [[["Dx"], ["Dy"]], [["Dy", "-Dx"]]]),
                   (["Dx", "y"], [[["Dx"], ["y"]], [["y", "-Dx"]]])]
    spec = {"schema": "ncdef-problem/1", "algebra": "weyl2",
            "modules": [{"ideal": ideal, "ranks": [1, 2, 1], "diffs": diffs}
                        for ideal, diffs in resolutions],
            "ext_basis": {"ext1": {
                "1,2": [{"mats": [[["x^9*Dx + 9*x^8"], ["x^9*y + 1"]], [["1", "0"]]]}],
                "2,1": [{"mats": [[["0"], ["1"]], [["1", "0"]]]}]}}}
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Ext^1(M2, M1)" in err and "bound 4" in err
    assert "Traceback" not in err


def test_module_word_the_ideal_cannot_reduce_fails_validation(tmp_path, capsys):
    # w commutes with nothing, so nf(w*x) = w*x has no x*w term and the
    # ideal (x, y, z) cannot remove the module word x*w
    spec = _poly3_spec()
    spec["algebra"]["generators"].append("w")
    spec["algebra"]["weights"]["w"] = 1
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec),
                 "--degree-bound", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "cannot reduce x*w" in err
    assert "Traceback" not in err


def test_module_trade_cycle_exits_on_the_nesting_bound(tmp_path, capsys):
    # with the ideal (x), the class of x*y is minus that of x*z and back:
    # the action table stops on its nesting bound instead of spinning the
    # step budget
    spec = {"schema": "ncdef-problem/1", "name": "trade-cycle",
            "algebra": {"generators": ["x", "y", "z"],
                        "rules": [["y*x", "x*y + x*z"], ["z*x", "x*z + x*y"]]},
            "modules": [{"name": "M", "ideal": ["x"], "ranks": [1, 1],
                         "diffs": [[["x"]]]}]}
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver bound exhausted:")
    assert "module action nested deeper than 100 entries" in err
    assert "Traceback" not in err


# D*y*x rewrites to x*y*D + x^2*D + y with D*y first and to that plus 2*x
# with y*x first, so 2*x = 0 and 1 = D*x - x*D = 0: A is the zero algebra.
# Without the overlap check, ext printed Ext^1 = 1 and run the free hull.
ZERO_ALGEBRA = {"schema": "ncdef-problem/1", "name": "zero-algebra",
                "algebra": {"generators": ["x", "y", "D"],
                            "rules": [["D*x", "x*D + 1"], ["y*x", "x*y + x*x"],
                                      ["D*y", "y*D"]]},
                "modules": [{"name": "M", "ideal": ["y", "D"], "ranks": [1, 2, 1],
                             "diffs": [[["y"], ["D"]], [["D", "-y"]]]}]}


def test_unresolved_overlap_exits_2_naming_the_word(tmp_path, capsys, monkeypatch):
    spec = _write(tmp_path, "spec.json", ZERO_ALGEBRA)
    for command in (["ext", "--spec", spec], ["run", "--spec", spec]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: the rules are not confluent: D*y*x")
        assert "Traceback" not in err
    # a report made with the check lifted does not verify
    with monkeypatch.context() as patched:
        patched.setattr(algebra, "_check_overlaps", lambda pres: None)
        assert main(["run", "--spec", spec, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "out" / "report.json")]) == 2
    assert "not confluent: D*y*x" in capsys.readouterr().err


def test_quantum_plane_point_exits_2_naming_its_rule(tmp_path, capsys):
    spec = {"schema": "ncdef-problem/1", "name": "quantum-plane",
            "algebra": {"generators": ["x", "y"], "rules": [["y*x", "2*x*y"]]},
            "modules": [{"name": "k", "ideal": ["x", "y"], "ranks": [1, 2, 1],
                         "diffs": [[["x"], ["y"]], [["y", "-2*x"]]]}]}
    assert main(["ext", "--spec", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: module 1: ideal generators are linked "
                          "by the rule y*x -> 2*x*y; only a plain transposition")
    assert "inhomogeneous" not in err and "Traceback" not in err


def test_solver_error_names_the_order_it_stopped_at(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise ProjectionFailed("probe")

    monkeypatch.setattr(massey, "project_ext2", fail)
    assert main(["run", "--preset", "weyl2-simple4", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "solver bound exhausted: order 2: probe\n"
