"""Points of k[x]/(x^N): the hull k[[t]]/(t^N) under the default early stop.

k[x]/(x^N) is presented by generators x, w2, ..., w_{N-1} of weights
1, ..., N-1, where a*b rewrites to the generator of degree deg a + deg b,
or to 0 from degree N on.  The point is cut out by every generator and
resolved periodically by x, x^{N-1}, x.  The module layer's syntactic guard
against linked ideal generators rejects this presentation although the
ideal (all generators) is handled right, so the tests lift the guard.

The relation x11^N appears only at order N, while a certificate cut off at
the last relation degree plus two already passes at order 2 for N >= 5: an
early stop must rest on a certificate that reaches twice the top degree of
the defining system.
"""

import json

import pytest

from ncdef import algebra
from ncdef.cli import main


def _trunc_spec(n):
    gens = ["x"] + ["w%d" % d for d in range(2, n)]
    weight = {g: d for d, g in enumerate(gens, start=1)}
    rules = [["%s*%s" % (a, b), gens[weight[a] + weight[b] - 1]
              if weight[a] + weight[b] < n else "0"]
             for a in gens for b in gens]
    return {"schema": "ncdef-problem/1", "name": "trunc%d" % n,
            "algebra": {"generators": gens, "rules": rules, "weights": weight},
            "modules": [{"ideal": gens, "ranks": [1, 1, 1, 1],
                         "diffs": [[["x"]], [["w%d" % (n - 1)]], [["x"]]]}]}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_early_stop_finds_the_truncation_relation(n, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(algebra, "_linked_pairs", lambda pres: [])
    spec = tmp_path / "trunc.json"
    spec.write_text(json.dumps(_trunc_spec(n)))
    assert main(["run", "--spec", str(spec), "--max-order", "8", "--json"]) == 0
    saved = tmp_path / "report.json"
    saved.write_text(capsys.readouterr().out)
    report = json.loads(saved.read_text())
    sign = "-" if n % 2 == 0 else ""
    assert [rel["text"] for rel in report["relations"]] == \
        [sign + "*".join(["x11"] * n)]
    assert report["stabilized"] is True
    assert report["stabilized_at"] == n
    cert = report["certificate"]
    assert cert["complete"] is True and cert["reduces_to_zero"] is True
    # the system's top degree is n - 1, so the check reaches 2(n - 1)
    assert cert["verified_cutoff"] == max(n + 2, 2 * (n - 1))
    # verify re-derives the report, its nonzero order-n products included
    assert main(["verify", str(saved)]) == 0
