"""Every boundary the benchmark's tracer wraps still exists.

`perfbench/tracer.py` wraps package functions and methods by name for a
traced pass.  A rename in the package breaks that pass, which only the
minutes-long `perfbench/smoke.py` run exercises; this test resolves the same
names the way `Recorder._patch` and `Recorder.install` do.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(owner_path, attr):
    module_name, _, class_name = owner_path.partition(".")
    owner = importlib.import_module("mwk." + module_name)
    if class_name:
        owner = getattr(owner, class_name)
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_every_traced_boundary_resolves():
    tracer = load_tracer()
    missing = []
    for name, owner, attr in tracer.SPANS + tracer.COUNTS:
        try:
            assert callable(resolve(owner, attr))
        except (ImportError, AttributeError, KeyError, AssertionError):
            missing.append(f"{name}: mwk.{owner}.{attr}")
    # the hooks that Recorder.install sets by hand
    for owner, attr in (
        ("valuation.ValuationContext", "residue_model"),
        ("valuation", "valuation_context"),
        ("model._Presentation", "relation_rows"),
    ):
        try:
            assert callable(resolve(owner, attr))
        except (ImportError, AttributeError, KeyError, AssertionError):
            missing.append(f"mwk.{owner}.{attr}")
    assert not missing, missing

