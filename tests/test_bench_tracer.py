"""The benchmark tracer (bench/tracer.py) finds the library's entry points by
module and name.  Installing it here makes a move or rename that would break
`bench/run.py --trace 1` fail in the ordinary test run instead."""

import importlib.util
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("cliffork_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name, qualname):
    module = sys.modules[f"cliffork.{module_name}"]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return getattr(module, cls_name), attr
    return module, qualname


def test_every_traced_name_resolves_and_is_restored():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()  # raises on a name that no longer resolves
    patches = list(tracer._patches)
    try:
        patched = {(owner, attr) for owner, attr, _ in patches}
        names = [(mod, name) for _, mod, name in tracer_mod.SPAN_LAYERS]
        names += [(mod, name) for _, mod, name in tracer_mod.HOT_LAYERS]
        names += [(mod, name) for _, mod, name in tracer_mod.COUNTED]
        names += [(mod, f"{cls}.__mul__") for _, _, mod, cls in tracer_mod.PRODUCT_LAYERS]
        names.append(("cli", "run_suite"))
        missing = [f"{mod}.{name}" for mod, name in names if _owner(mod, name) not in patched]
        assert missing == []
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
    # the census counter reads the basis from the first positional argument
    for layer, mod, name in tracer_mod.SPAN_LAYERS:
        if layer in tracer_mod.CENSUS_USERS:
            fn = getattr(*_owner(mod, name))
            assert next(iter(inspect.signature(fn).parameters)) == "basis"
