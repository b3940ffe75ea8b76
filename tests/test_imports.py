"""The package imports only what a command runs.

A `weylcalc` process that runs no law must not load the law harness or
what only it needs; the law names stay reachable from the package all
the same, resolved on first use.
"""

import subprocess
import sys

import pytest

import weylcalc
import weylcalc.laws

# What only the law harness needs, and the harness itself.
LAW_ONLY = {"weylcalc.laws", "dataclasses", "hashlib"}


def imported(*args: str) -> tuple[set[str], subprocess.CompletedProcess]:
    """The modules a `python -X importtime <args>` run imports, and the run."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, timeout=60
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return names, proc


def test_a_command_without_laws_does_not_load_the_harness():
    bare, _ = imported("-c", "pass")
    names, proc = imported("-m", "weylcalc", "normalize", "d1*t1")
    assert proc.returncode == 0 and proc.stdout == "(t1)*d1 + 1\n"
    added = names - bare
    assert "weylcalc.parser" in added
    assert not added & LAW_ONLY, sorted(added & LAW_ONLY)


def test_check_loads_the_harness():
    names, proc = imported("-m", "weylcalc", "check", "--law", "jacobi", "--trials", "2", "--seed", "1")
    assert proc.returncode == 0 and proc.stdout == "jacobi 2 0 PASS\n"
    assert "weylcalc.laws" in names


def test_law_names_resolve_from_the_package():
    from weylcalc import run_all

    assert run_all is weylcalc.laws.run_all
    assert weylcalc.LAWS is weylcalc.laws.LAWS
    assert weylcalc.ACCEPTANCE_CONFIG is weylcalc.laws.ACCEPTANCE_CONFIG
    namespace: dict = {}
    exec("from weylcalc import *", namespace)
    assert set(weylcalc.__all__) <= set(namespace)
    assert namespace["GenConfig"] is weylcalc.laws.GenConfig


def test_dir_lists_every_public_name():
    assert set(weylcalc.__all__) <= set(dir(weylcalc))


def test_unknown_attributes_raise():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        weylcalc.no_such_name
    assert not hasattr(weylcalc, "run_everything")
