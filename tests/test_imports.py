"""Cold start and public names: the package and the CLI load an engine
module only when a name from it is used, and every public name still
resolves where it did.  No check in the package is an assert, which
`python -O` strips."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degpow
from degpow import asymptotics, cli, search

SRC = Path(__file__).resolve().parent.parent / "src"

# run one command in a fresh interpreter, then list the degpow modules loaded
LOADED_AFTER = """
import contextlib, io, json, sys
from degpow.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "degpow" or m.startswith("degpow."))
print(json.dumps({"code": code, "loaded": loaded}))
"""


def loaded_after(*argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return set(result["loaded"])


def test_help_loads_no_engine_module():
    assert loaded_after("--help") == {"degpow", "degpow.cli"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("epow", "gprime:n=20,d=10", "--p", "2"), {"search", "asymptotics", "claims"}),
        (("verify", "turan-closed-form"), {"search"}),
    ],
)
def test_command_loads_only_what_it_runs(argv, absent):
    loaded = loaded_after(*argv)
    assert {"degpow", "degpow.cli", "degpow.graphs"} <= loaded
    assert not loaded & {f"degpow.{name}" for name in absent}


def test_every_public_name_resolves():
    for name in degpow.__all__:
        assert getattr(degpow, name) is not None, name
    namespace = {}
    exec("from degpow import *", namespace)
    assert set(degpow.__all__) <= set(namespace)
    assert namespace["search_extremal"] is search.search_extremal
    assert namespace["optimize_c"] is asymptotics.optimize_c
    assert set(degpow.__all__) <= set(dir(degpow))
    with pytest.raises(AttributeError):
        degpow.no_such_name


def test_cli_keeps_the_engine_names_it_imported():
    assert cli.search_extremal is search.search_extremal
    assert cli.optimize_c is asymptotics.optimize_c
    assert cli.CapacityError is degpow.CapacityError
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_the_package_holds_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "degpow").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
