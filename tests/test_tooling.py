"""The benchmark's layer tracer must find every entry point it names.

`perfbench/run.py --trace 1` wraps the functions listed in the tracer's
``SPANS``; a renamed or deleted one makes it fail with an AttributeError,
so the names are checked here by installing and uninstalling the tracer.
"""

import importlib.util
import sys
from pathlib import Path


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(modname, name):
    owner = sys.modules[modname]
    if "." in name:
        cls_name, name = name.split(".")
        return vars(getattr(owner, cls_name))[name]
    return getattr(owner, name)


def test_tracer_spans_resolve_and_uninstall():
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install()
        wrapped = {(modname, name): _entry(modname, name)
                   for modname, names in tracer.SPANS.values()
                   for name in names}
        from ctlab import forge

        forge.quaternion(8)
        assert any(span[0] == "forge.construct" for span in tr.spans)
        assert tr.counts["perms.pmul_calls"] > 0
    finally:
        tr.uninstall()
    for (modname, name), wrapper in wrapped.items():
        original = _entry(modname, name)
        assert original is not wrapper and wrapper.__wrapped__ is original, \
            (modname, name)
