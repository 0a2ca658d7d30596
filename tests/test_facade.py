import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trib11


def test_all_lists_exactly_the_public_names():
    # __init__.py names each export twice (import and __all__); keep the two in step
    assert [name for name in trib11.__all__ if not hasattr(trib11, name)] == []
    public = {
        name for name, value in vars(trib11).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(trib11.__all__)
    assert len(trib11.__all__) == len(set(trib11.__all__))


#: names that only the tests call, each with the module it still imports from
_TEST_ONLY = {
    "ModulusMismatch": "trib11.tribonacci",
    "QuotientRing": "trib11.tribonacci",
    "RingElement": "trib11.tribonacci",
    "RootFormulaContext": "trib11.tribonacci",
    "jacobi": "trib11.modmath",
    "require_prime": "trib11.modmath",
    "_sqrt_mod": "trib11.modmath",  # what was the public sqrt_mod
    "ObstructionReport": "judges",
    "frobenius_reduction_check": "judges",
    "obstruction_check": "judges",
}


def test_only_what_the_programs_call_is_exported():
    assert len(trib11.__all__) == 30
    gone = {name.lstrip("_") for name in _TEST_ONLY}
    assert gone.isdisjoint(trib11.__all__)
    assert gone.isdisjoint(dir(trib11))
    for name, module in _TEST_ONLY.items():
        assert hasattr(importlib.import_module(module), name), (module, name)


def fresh_stdout(code):
    """Stdout of `code` run by a fresh interpreter that imports this checkout's trib11."""
    env = dict(os.environ, PYTHONPATH=str(Path(trib11.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dir_lists_every_public_name_before_any_is_loaded():
    out = fresh_stdout(
        "import trib11\n"
        "print(sorted(set(trib11.__all__) - set(dir(trib11))))\n"
        "print(sorted(set(trib11.__all__) & set(vars(trib11))))\n"  # bound so far
    )
    assert out == "[]\n[]\n"


def test_star_import_binds_every_public_name():
    out = fresh_stdout(
        "from trib11 import *\n"
        "import trib11\n"
        "print([n for n in trib11.__all__ if globals().get(n) is not getattr(trib11, n)])\n"
    )
    assert out == "[]\n"


def test_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'$"):
        trib11.no_such_name
