"""The ``quasih`` package loads its public names on first access."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasih


def test_every_public_name_is_its_defining_modules_object():
    for name in quasih.__all__:
        obj = getattr(quasih, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert obj.__module__.startswith("quasih."), name


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from quasih import *", namespace)
    assert {name: namespace[name] for name in quasih.__all__} == {
        name: getattr(quasih, name) for name in quasih.__all__
    }


def test_dir_lists_the_public_names():
    assert set(quasih.__all__) | {"__version__", "__all__"} <= set(dir(quasih))
    assert len(set(quasih.__all__)) == len(quasih.__all__) == 41


def test_no_public_function_takes_a_threshold():
    # The reality threshold is spectrum.REALITY_TOL; the metric family is
    # exact and has no rank threshold.
    for name in quasih.__all__:
        obj = getattr(quasih, name)
        if inspect.isfunction(obj):
            assert not {"tol", "rank_tol"} & set(inspect.signature(obj).parameters), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'in_domian'"):
        quasih.in_domian  # noqa: B018
    assert not hasattr(quasih, "np")


def test_import_quasih_loads_no_numpy_until_a_module_needs_it():
    src = str(Path(quasih.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, quasih; before = 'numpy' in sys.modules; quasih.spectrum.numeric_energies; "
        "print(quasih.__version__, before, 'numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == f"{quasih.__version__} False True\n"


def test_exact_domain_and_perturb_load_no_numpy():
    src = str(Path(quasih.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, quasih.exact, quasih.domain, quasih.perturb; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False\n"
