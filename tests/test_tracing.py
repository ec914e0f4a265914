"""The benchmark tracer (perfbench/tracing.py) wraps functions of the package
by module and name; each of those names must resolve, or traced and A/B runs
break with an AttributeError that no other test sees."""
import importlib
import importlib.util
import sys
from pathlib import Path

import noksurf.cli  # noqa: F401 -- loads every module the tracer wraps

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("noksurf_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_the_package():
    tracing = _tracing()
    targets = [(mod, attr) for spans in tracing.LAYERS.values() for mod, attr, _ in spans]
    targets += tracing.MODULE_ONLY.values()
    missing = []
    for mod, attr in targets:
        module = importlib.import_module(f"noksurf.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"noksurf.{mod}.{attr}")
    assert missing == []


def test_the_tracer_installs_and_restores_every_binding():
    tracing = _tracing()
    modules = {k: m for k, m in sys.modules.items() if k.startswith("noksurf.")}
    before = {k: dict(vars(m)) for k, m in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        flagbuilder = modules["noksurf.flagbuilder"]
        assert flagbuilder.is_model_ample is not before["noksurf.flagbuilder"]["is_model_ample"]
    finally:
        tracer.uninstall()
    for k, m in modules.items():
        after = vars(m)
        assert all(after.get(key) is val for key, val in before[k].items()), k
