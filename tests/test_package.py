"""The package namespace: every public name resolves from its defining layer,
and importing the package runs ball alone."""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import gyrokit

_LAYERS = ("ball", "geometry", "matrix_models", "morphisms", "sampling", "verifier")
_PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _fresh(code: str) -> dict:
    """The JSON object that code prints last, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _defined_in(name: str):
    """The layer that defines name: the first, ball first, whose own object it is.

    Constants carry no __module__, so they count as their first holder's, ball.
    """
    for layer in _LAYERS:
        module = importlib.import_module(f"gyrokit.{layer}")
        value = vars(module).get(name)
        if value is not None and getattr(value, "__module__", module.__name__) == module.__name__:
            return module
    raise LookupError(name)


@pytest.mark.parametrize("name", gyrokit.__all__)
def test_each_public_name_is_its_layers_object(name):
    assert getattr(gyrokit, name) is getattr(_defined_in(name), name)


def test_star_import_binds_all_of_all():
    namespace = {}
    exec("from gyrokit import *", namespace)
    assert set(gyrokit.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(gyrokit, name) for name in gyrokit.__all__)


def test_dir_lists_all_before_any_name_is_read():
    missing = _fresh(
        """
        import json
        import gyrokit
        print(json.dumps(sorted(set(gyrokit.__all__) - set(dir(gyrokit)))))
        """
    )
    assert missing == []


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        gyrokit.no_such_name  # noqa: B018


def test_import_runs_ball_alone():
    executed = _fresh(
        """
        import json, sys, types
        import gyrokit
        print(json.dumps(sorted(
            name for name, module in sys.modules.items()
            if name.split(".")[0] == "gyrokit" and type(module) is types.ModuleType
        )))
        """
    )
    assert executed == ["gyrokit", "gyrokit.ball"]


def test_import_registers_every_module_the_benchmark_tracer_wraps():
    # the tracer reads sys.modules[module] for each of its targets
    found = _fresh(
        f"""
        import json, sys
        sys.path.insert(0, {os.path.abspath(_PERFBENCH)!r})
        from tracer import TARGETS
        import gyrokit
        print(json.dumps({{m: m in sys.modules for m, _ in TARGETS.values()}}))
        """
    )
    assert found and all(found.values()), found
