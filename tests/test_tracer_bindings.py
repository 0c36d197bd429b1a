"""perfbench's tracer wraps each traced class method found in its owner's
own `vars()` and rebinds every name that holds the same function object.
So a traced method must be defined in its owner's class body, and no other
superinv class may bind that object: a method moved into a shared base
would merge two per-layer metrics, counting polynomial sums as scalar sums.

The traced names are read from `perfbench/tracing.py`, which is not edited.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

LAYERS = ("grassmann", "supermatrix", "linalg", "reduction", "invariants", "sympoly",
          "verify", "cli")

TRACED_METHODS = [(module, path) for module, path, _name in tracing.SPANNED + tracing.COUNTED
                  if "." in path]


def superinv_classes():
    """Every class defined in a superinv layer."""
    out = set()
    for layer in LAYERS:
        module = importlib.import_module("superinv." + layer)
        out.update(cls for _name, cls in inspect.getmembers(module, inspect.isclass)
                   if cls.__module__.startswith("superinv"))
    return out


def test_ten_class_methods_are_traced():
    assert len(TRACED_METHODS) == 10


@pytest.mark.parametrize("module, path", TRACED_METHODS, ids=[p for _m, p in TRACED_METHODS])
def test_traced_method_is_its_owners_own(module, path):
    owner_name, attr = path.split(".")
    owner = getattr(importlib.import_module("superinv." + module), owner_name)
    assert attr in vars(owner), "%s is not defined in %s's own body" % (attr, owner_name)
    fn = vars(owner)[attr]
    others = sorted("%s.%s" % (cls.__name__, key) for cls in superinv_classes() if cls is not owner
                    for key, value in vars(cls).items() if value is fn)
    assert others == [], "%s is also bound as %s" % (path, others)
