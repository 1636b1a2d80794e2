"""The benchmark tracer's bindings still exist on the library modules.

``perfbench/tracing.py`` swaps named attributes of hetclaw modules for
wrappers during a traced round.  Some of those names are imported but not
called by the module that holds them, so a cleanup that drops them would
only break the traced benchmark; this test catches that in the main suite.
"""
from __future__ import annotations

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, *_ in tracing.PATCHES],
    ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_traced_name_is_bound(module, attr):
    assert hasattr(module, attr)
