"""Exit-code contract under mutated input files.

Each example takes a catalog document as `catalog --dump` writes it,
damages it in one or two places (a value of the wrong type, "1/0", a huge
integer, an empty list, a dropped key or element, or a small value that
keeps the file loadable) and runs one file command on it in-process.
Whatever the damage, the command answers 0, 1 or 2 and never reports an
internal error.
"""
import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from invder import algebra_to_dict, catalog
from invder.cli import main

DOCUMENTS = {e.id: algebra_to_dict(e.document) for e in catalog()}

DROP = object()
REPLACEMENTS = [DROP, None, True, "", "x", "1/0", 1.5, -1, 10 ** 30,
                "9" * 60, [], [[]], {}, 0, 1, "0", "-1/2"]

# {f} is the damaged file, {m} a map the undamaged document stores
COMMANDS = [
    ["check", "{f}"],
    ["check", "{f}", "--axiom", "invder-lie", "--map", "{m}"],
    ["derivations", "{f}"],
    ["invder", "{f}", "--map", "{m}"],
    ["invder-search", "{f}", "--samples", "4"],
    ["twist", "{f}", "--map", "{m}"],
    ["twist", "{f}", "--map", "{m}", "--force"],
    ["transform", "commutator-lie", "{f}", "--map", "{m}"],
    ["transform", "rb-prelie-from-lie", "{f}", "--operator", "{m}"],
    ["transform", "rb-prelie-from-assoc", "{f}", "--operator", "{m}"],
    ["transform", "endo-lie-from-assoc", "{f}", "--operator", "{m}"],
    ["transform", "zinbiel-to-assoc", "{f}"],
    ["transform", "dendriform-to-zinbiel", "{f}", "--force"],
    ["transform", "dendriform-to-assoc", "{f}"],
    ["transform", "dendriform-to-prelie", "{f}"],
    ["rota-baxter", "{f}", "--map", "{m}", "--weight", "-1"],
    ["verify-theorem", "prop-2.1", "{f}", "--map", "{m}"],
    ["verify-theorem", "cor-yau", "{f}", "--map", "{m}"],
    ["verify-theorem", "thm-yau", "{f}", "--map", "{m}"],
    ["verify-theorem", "thm-4-dendriform", "{f}", "--map", "{m}"],
    ["verify-theorem", "thm-3-rbo", "{f}", "--operator", "{m}"],
    ["verify-theorem", "prop-3.6", "{f}", "--operator", "{m}"],
]


def _paths(node, prefix=()):
    """Every position below the root."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _damage(doc, path, value) -> None:
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        # a copy: a second damage inside a shared [], [[]] or {} would
        # otherwise change REPLACEMENTS, or nest the value in itself
        parent[path[-1]] = copy.deepcopy(value)


# The draws come from one seeded Random, so that damage spreads evenly over
# the positions of a document (hypothesis's own draws favour the ends of a
# list, here the top-level keys, which the loader refuses first).
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_damaged_files_keep_the_exit_contract(tmp_path_factory, rng):
    doc = json.loads(json.dumps(DOCUMENTS[rng.choice(sorted(DOCUMENTS))]))
    maps = sorted(doc.get("maps", {})) or ["delta"]
    for _ in range(rng.randint(1, 2)):
        paths = list(_paths(doc))
        if paths:
            _damage(doc, rng.choice(paths), rng.choice(REPLACEMENTS))
    target = tmp_path_factory.getbasetemp() / "damaged.json"
    target.write_text(json.dumps(doc))
    argv = [a.format(f=target, m=rng.choice(maps))
            for a in rng.choice(COMMANDS)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, doc, err.getvalue())
    assert "internal error:" not in err.getvalue(), (argv, doc)
