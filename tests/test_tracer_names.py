"""Every name the end-to-end benchmark's tracer rebinds still exists.

e2ebench/spans.py wraps functions by (module, attribute) at run time; a
renamed or moved function would otherwise only show when the benchmark
runs.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "e2ebench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("e2ebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module_name, attr, span", _wrapped())
def test_wrapped_name_resolves_to_callable(module_name, attr, span):
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert callable(fn), f"{module_name}.{attr} (span {span}) is not a callable"
