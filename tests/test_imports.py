"""Import footprint: ``import arrcoh`` loads no submodule, a verb loads only the modules it runs,
and nothing loads the standard library's code generators.

Each check runs in a fresh interpreter, because this test session has
already imported every module.
"""

import json
import subprocess
import sys

import pytest

from arrcoh import cli
from test_golden_cli import case_argv, fresh_env


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=fresh_env(), capture_output=True, text=True, check=False
    )


def _modules_after(code: str, *args: str) -> set[str]:
    """Every module loaded after ``code`` runs in a fresh interpreter."""
    proc = _fresh(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", *args)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _submodules(loaded: set[str]) -> set[str]:
    """The ``arrcoh`` submodules among ``loaded``, without the package prefix."""
    return {m.removeprefix("arrcoh.") for m in loaded if m.startswith("arrcoh.")}


# what ``dataclasses`` brings in to generate and exec methods: several ms of
# every cold verb, so records are written out by hand
CODE_GENERATORS = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_import_arrcoh_loads_no_submodule():
    assert _submodules(_modules_after("import arrcoh")) == set()


def test_resolving_every_export_loads_no_code_generator():
    assert not _modules_after("import arrcoh\nfor name in arrcoh.__all__:\n    getattr(arrcoh, name)") & CODE_GENERATORS


VERB_RUN = """
import contextlib, io, sys
from arrcoh import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
"""


ALWAYS = {"cli", "linalg", "fp"}  # the CLI and the exact arithmetic every verb parses its input with

VERB_MODULES = {  # verb (also the name of its golden case) -> the other arrcoh modules it loads
    "arr-lattice": {"arrangement"},
    "arr-beta": {"arrangement"},
    "arr-nested": {"arrangement", "simplicial", "cochain"},
    "arr-vanish": {"arrangement", "simplicial", "cochain", "covers", "poset"},
    "arr-salvetti": {"arrangement", "salvetti", "cochain"},
    "toric-cohomology": {"toric", "simplicial", "cochain", "covers", "poset"},
    "toric-cm": {"toric", "simplicial", "cochain"},
    "toric-verify": {"toric", "simplicial", "cochain", "covers", "poset"},
    "ell-analyze": {"elliptic"},
    "ell-convenient": {"elliptic"},
    "ell-certify": {"elliptic", "arrangement", "poset", "covers"},
    "covers-validate": {"covers", "poset"},
}


def test_every_verb_has_a_module_set():
    assert set(VERB_MODULES) == set(cli._HANDLERS)


@pytest.mark.parametrize("verb", sorted(VERB_MODULES))
def test_verb_loads_only_its_family(verb, tmp_path):
    """The exact module set of each verb, so that a sibling import moved back
    to a module top shows here.  Each golden case named after a verb takes
    its ``--certificate`` or ``--page`` branch where it has one."""
    loaded = _modules_after(VERB_RUN, *case_argv(verb, tmp_path))
    assert _submodules(loaded) == ALWAYS | VERB_MODULES[verb]
    assert not loaded & CODE_GENERATORS


def test_star_import_binds_every_exported_name():
    code = (
        "import arrcoh\n"
        "assert set(arrcoh.__all__) <= set(dir(arrcoh))\n"
        "from arrcoh import *\n"
        "missing = [n for n in arrcoh.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "from arrcoh.arrangement import Arrangement as A\n"
        "assert Arrangement is A and arrcoh.Arrangement is A\n"
    )
    proc = _fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    proc = _fresh("import arrcoh\narrcoh.nope")
    assert proc.returncode == 1
    assert "AttributeError: module 'arrcoh' has no attribute 'nope'" in proc.stderr
