"""The package surface: lazily loaded names and what each command imports.

No module of the package loads dataclasses, or inspect, which it pulls
in: the value types are plain slotted classes, so a command does not pay
for either at start-up.

Nor does any command load typing.  A site .pth file may load it before
the package does, so that check runs the commands under `python -S`,
with no site module.

The fresh-interpreter tests run `sys.executable -W error` in a subprocess,
so that nothing this test process already imported hides a load.
"""
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import invder

SRC = os.path.dirname(os.path.dirname(os.path.abspath(invder.__file__)))

# standard modules no command may load
UNWANTED = ("dataclasses", "inspect")


def fresh(code: str, *args: str, site: bool = True) -> str:
    """Stdout of `code` run in a new interpreter that imports this invder;
    with site=False the interpreter runs with -S."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    flags = ["-W", "error"] + ([] if site else ["-S"])
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyNames:
    def test_every_exported_name_is_its_home_modules_object(self):
        for name in invder.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(f"invder.{invder._HOME[name]}")
            assert getattr(invder, name) is getattr(home, name), name

    def test_star_import_binds_all_and_dir_covers_it(self):
        namespace = {}
        exec("from invder import *", namespace)
        assert set(invder.__all__) <= set(namespace)
        assert set(invder.__all__) <= set(dir(invder))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            invder.no_such_name
        with pytest.raises(ImportError):
            exec("from invder import no_such_name", {})

    def test_moved_names_keep_their_old_import_paths(self):
        catalog_module = importlib.import_module("invder.catalog")
        model = importlib.import_module("invder.model")
        assert catalog_module.FAMILIES is model.FAMILIES
        assert catalog_module.max_dimension is model.max_dimension

    def test_bare_import_loads_no_submodule(self):
        out = fresh("import sys, invder; "
                    "print([m for m in sys.modules if m.startswith('invder.')])")
        assert out == "[]\n"

    def test_no_submodule_loads_dataclasses_or_inspect(self):
        names = sorted(f"invder.{p.stem}" for p in
                       pathlib.Path(invder.__file__).parent.glob("*.py")
                       if p.stem != "__init__")
        out = fresh("import importlib, sys\n"
                    f"for name in {names!r}:\n"
                    "    importlib.import_module(name)\n"
                    f"print([m for m in {UNWANTED!r} if m in sys.modules])")
        assert out == "[]\n"

    @pytest.mark.parametrize("route", [
        "import invder.catalog",
        "import importlib; importlib.import_module('invder.catalog')",
        "from invder import run_property_suite",
        "import contextlib, io, invder.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert invder.cli.main(['catalog']) == 0",
    ], ids=["import-statement", "import-module", "from-import", "cli"])
    def test_catalog_attribute_stays_the_function(self, route):
        out = fresh(f"import invder\n{route}\n"
                    "print(invder.catalog is invder.catalog.__globals__"
                    "['catalog'], type(invder.catalog).__name__)")
        assert out == "True function\n"


# Each group runs its commands one after another in one fresh interpreter.
# The modules a command must not load, its group's and UNWANTED, are checked
# after every command, so a failure names the first command that loaded one.
PROBE = """
import contextlib, io, json, sys
from invder.cli import main
rows = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    rows.append([code, sorted(m[7:] if m.startswith("invder.") else m
                              for m in sys.modules
                              if m.startswith("invder.")
                              or m in json.loads(sys.argv[2]))])
print(json.dumps(rows))
"""

BOUNDARIES = {
    "check": (("derivations", "poly", "constructions", "catalog"), [
        (["check", "{heisenberg3}"], 0),
        (["check", "{so3}", "--axiom", "invder-lie", "--map", "ad_e1"], 1),
    ]),
    "derivations": (("constructions", "catalog"), [
        (["invder", "{heisenberg3}", "--map", "delta_w"], 0),
        (["invder", "{heisenberg3}", "--map", "diag112"], 1),
        (["derivations", "{so3}"], 0),
        (["invder-search", "{heisenberg3}", "--samples", "20"], 0),
        (["invder-search", "{so3}"], 1),
    ]),
    "constructions": (("poly", "catalog"), [
        (["twist", "{heisenberg3}", "--map", "delta_w"], 0),
        (["twist", "{heisenberg3}", "--map", "diag112"], 2),
        (["transform", "commutator-lie", "{a3}"], 0),
        (["transform", "rb-prelie-from-assoc", "{a3}", "--operator",
          "proj_z"], 0),
        (["rota-baxter", "{a3}", "--map", "identity"], 1),
        (["verify-theorem", "thm-2.1", "{heisenberg3}", "--map",
          "delta_w"], 0),
        (["verify-theorem", "prop-2.1", "{heisenberg3}", "--map",
          "delta_w"], 0),
        (["verify-theorem", "prop-2.2", "{so3}", "--map", "ad_e1"], 1),
        (["verify-theorem", "cor-yau", "{heisenberg3}", "--map",
          "delta_w"], 0),
        (["verify-theorem", "prop-3.5", "{a3}"], 0),
        (["verify-theorem", "prop-3.6", "{a3}", "--operator",
          "identity"], 0),
    ]),
    "catalog": ((), [
        (["catalog", "--entry", "so3", "--verify"], 0),
        (["suite", "--samples", "1"], 0),
        (["search-counterexample", "--family", "random_nilpotent_tables",
          "--max-dim", "4", "--samples", "4"], 0),
    ]),
}


def argvs_of(commands, algebra_dir) -> str:
    return json.dumps([[a.format(**{e: str(algebra_dir / f"{e}.json")
                                    for e in ("heisenberg3", "so3", "a3")})
                        for a in argv] for argv, _ in commands])


@pytest.mark.parametrize("group", list(BOUNDARIES))
def test_commands_load_only_the_modules_they_run(algebra_dir, group):
    forbidden, commands = BOUNDARIES[group]
    rows = json.loads(fresh(PROBE, argvs_of(commands, algebra_dir),
                            json.dumps(UNWANTED)))
    for (argv, expected), (code, loaded) in zip(commands, rows):
        assert code == expected, argv
        assert not set(forbidden + UNWANTED) & set(loaded), (argv, loaded)


@pytest.mark.parametrize("group", list(BOUNDARIES))
def test_commands_load_no_typing_without_site(algebra_dir, group):
    _, commands = BOUNDARIES[group]
    rows = json.loads(fresh(PROBE, argvs_of(commands, algebra_dir),
                            json.dumps(["typing"]), site=False))
    for (argv, expected), (code, loaded) in zip(commands, rows):
        assert code == expected, argv
        assert "typing" not in loaded, argv
