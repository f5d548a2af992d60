"""The benchmark's tracer wraps functions by (module, attribute) name, so a
refactor that drops or renames a traced name must fail here, not only in a
traced benchmark run."""

import importlib.util
import pathlib

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_site_exists():
    spec = importlib.util.spec_from_file_location("tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for _, sites, _ in tracing.WRAPPED
               for module, attr in sites if not callable(getattr(module, attr, None))]
    assert not missing
