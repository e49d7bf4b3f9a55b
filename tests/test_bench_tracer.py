"""The names perfbench's tracer wraps must stay in lfam.

perfbench/tracer.py swaps the names that lfam.unet and lfam.attention
imported for timing wrappers and passes a timing `lfam_fn` into
`unet.forward`.  A rename in lfam would only show when a traced benchmark
run dies with AttributeError; these checks catch it in the unit tests.
"""

import importlib.util
import inspect
from pathlib import Path

import lfam.attention
import lfam.unet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable_of_its_module():
    spans = load_tracer()._FORWARD_SPANS
    assert set(spans) == {lfam.unet, lfam.attention}
    missing = [f"{mod.__name__}.{name}" for mod, names in spans.items() for name in names
               if not callable(getattr(mod, name, None))]
    assert not missing


def test_forward_takes_lfam_fn():
    assert "lfam_fn" in inspect.signature(lfam.unet.forward).parameters
