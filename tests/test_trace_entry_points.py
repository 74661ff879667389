"""Every layer the traced benchmark wraps must still exist.

``perfbench/tracing.py`` times each layer by swapping a named entry point
(a module global or a class attribute) for a wrapper.  A refactor that
renames or removes one of them would crash ``run.py --trace 1`` with an
``AttributeError``; this test makes it fail here instead.  The benchmark
file is only read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module_name,attr,layer",
    tracing.ENTRY_POINTS,
    ids=[f"{layer}:{attr}" for _, attr, layer in tracing.ENTRY_POINTS],
)
def test_entry_point_resolves(module_name, attr, layer):
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
        assert isinstance(owner, type), f"{class_name} is not a class"
    # The tracer patches a class attribute through the class's own
    # ``__dict__`` (an inherited method would be patched on the wrong
    # class), and a module global through ``getattr``.
    if classes:
        assert name in vars(owner), f"{attr} is not defined on its class"
    else:
        assert callable(getattr(owner, name)), f"{module_name}.{name}"
