"""The benchmark's tracer patches library functions by name: every name it lists
must exist, so that deleting one fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from vawgan import features, model, numerics, objectives

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module,names",
    [
        (numerics, spans.PRIMITIVES + ("backward",)),
        (model, spans.MODEL_FUNCS + ("critic_lipschitz_bound",)),
        (objectives, spans.OBJECTIVE_FUNCS),
        (features, spans.UNIT_FEATURES + spans.SETUP_FEATURES),
    ],
    ids=["numerics", "model", "objectives", "features"],
)
def test_every_traced_name_exists(module, names):
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"{module.__name__} lacks {missing}, which perfbench/spans.py patches"
