"""The package root exports its names lazily, and a path command loads no cone route.

``import qtcatalan`` imports no submodule; each exported name is imported
from its home module on first access.  The names below are every name the
root exported when it imported them all at once, but for the test oracles
that now live in ``tests/classical.py``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtcatalan

ROOT = Path(__file__).resolve().parent.parent

# exported name -> home module
EXPORTS = {
    **dict.fromkeys(
        ["CaseSpec", "assemble_case", "assemble_theorem", "case_catalog", "case_membership",
         "printed_theorem", "signed_multiplicity"],
        "catalog",
    ),
    **dict.fromkeys(
        ["HalfOpenCone", "RationalGF", "gf_equals", "gf_substitute", "integer_point_transform",
         "lattice_index", "parallelepiped_points", "parse_cone", "series_expand"],
        "cones",
    ),
    **dict.fromkeys(
        ["DegenerateSubstitutionError", "DomainError", "InternalInvariantError",
         "NonExpandableError", "UsageError"],
        "errors",
    ),
    **dict.fromkeys(
        ["SymmetryReport", "check_last_param", "lambda_catalan", "refined_catalan",
         "symmetry_report"],
        "oracles",
    ),
    **dict.fromkeys(
        ["DyckPath", "KVector", "area_bounce_counts", "count_paths", "enumerate_paths",
         "path_stats"],
        "paths",
    ),
    **dict.fromkeys(["stats_kaaa", "stats_three"], "families"),
    **dict.fromkeys(
        ["QT_CONTEXT", "LaurentPoly", "VariableContext", "coefficient_grid", "qt_swap",
         "substitute_monomials"],
        "polynomial",
    ),
    **dict.fromkeys(["TheoremReport", "verify_theorem"], "verify"),
}

# the test oracles that the root and oracles exported, now in tests/classical.py
MOVED = ["carlitz_riordan", "check_bounce_agreement", "check_q_specializations",
         "macmahon_q_catalan", "q_binomial"]

FRESH_RUN = """
import contextlib, io, json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("qtcatalan."))
import qtcatalan
at_import = loaded()
from qtcatalan import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["catalan", "--k", "1,2,1"])
print(json.dumps({"at_import": at_import, "after_catalan": loaded(), "code": code,
                  "out": out.getvalue()}))
"""


def test_a_path_command_loads_nothing_of_the_cone_route():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", FRESH_RUN], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["at_import"] == []
    assert report["code"] == 0
    assert report["out"] == "q^2*t + q*t^2 + q^4 + q^3*t + q^2*t^2 + q*t^3 + t^4\n"
    # verify may be loaded: the CLI imports it at the top, and it imports the
    # cone route only inside its functions
    loaded = {name.split(".")[1] for name in report["after_catalan"]}
    assert loaded & {"lattice", "cones", "catalog"} == set()


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_every_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"qtcatalan.{EXPORTS[name]}")
    assert getattr(qtcatalan, name) is getattr(home, name)


def test_all_and_dir_list_every_export():
    assert len(EXPORTS) == 42
    assert sorted(qtcatalan.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(qtcatalan))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qtcatalan import *", namespace)
    for name, module in EXPORTS.items():
        assert namespace[name] is getattr(importlib.import_module(f"qtcatalan.{module}"), name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qtcatalan.no_such_name
    assert not hasattr(qtcatalan, "add_terms")


@pytest.mark.parametrize("name", MOVED)
def test_a_test_oracle_is_no_export(name):
    for module in ("qtcatalan", "qtcatalan.oracles"):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


def test_submodules_still_import_from_the_root():
    from qtcatalan import catalog, cli, cones

    assert (cli.__name__, catalog.__name__, cones.__name__) == (
        "qtcatalan.cli", "qtcatalan.catalog", "qtcatalan.cones"
    )
