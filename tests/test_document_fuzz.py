"""Seeded mutations of problem documents end in a documented exit code.

Each case edits the poly3 spec or the weyl2-simple4 preset document once or
twice (a junk value, a deleted entry, a renamed key or an appended junk
element) and runs ``ext --spec`` in process: the command exits 0, 2, 3 or 4
and no exception escapes ``main``.
"""

import copy
import json
import random
from collections import Counter
from pathlib import Path

from ncdef.cli import main
from ncdef.presets import SCHEMA_PROBLEM, _PRESETS

JUNK = [None, True, 0, -1, 1.5, "", "x", "y*x", [], {}, [["x"]], {"x": 1}, ["x", 0]]


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, path + (key,))


def _mutate(doc, rng):
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 2))):
        paths = [path for path in _paths(doc) if path]
        if not paths:
            break
        path = rng.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = rng.randrange(3)
        if action == 0:
            parent[key] = copy.deepcopy(rng.choice(JUNK))
        elif action == 1:
            del parent[key]
        elif isinstance(parent, dict):
            parent[key + "x"] = parent.pop(key)
        else:
            parent.append(copy.deepcopy(rng.choice(JUNK)))
    return doc


def test_mutated_documents_exit_with_documented_codes(tmp_path, capsys):
    poly3 = json.loads((Path(__file__).parent / "specs" / "poly3.json").read_text())
    weyl = {"schema": SCHEMA_PROBLEM, **_PRESETS["weyl2-simple4"]}
    rng = random.Random(0)
    spec = tmp_path / "spec.json"
    outcomes = Counter()
    for _ in range(200):
        spec.write_text(json.dumps(_mutate(rng.choice((poly3, weyl)), rng)))
        outcomes[main(["ext", "--spec", str(spec), "--degree-bound", "4"])] += 1
        capsys.readouterr()
    assert set(outcomes) <= {0, 2, 3, 4}
    assert outcomes[0] and outcomes[2]
