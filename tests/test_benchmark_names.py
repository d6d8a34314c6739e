"""The benchmark calls the library by name: every name its tracer patches must
exist, and every call in ``perfbench/`` must still bind to its target's
signature, so that deleting a function or an argument fails here and not
only in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from vawgan import features, model, numerics, objectives

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
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


def _call_shapes():
    """Each distinct call on the library in the benchmark's own modules, as a
    pytest param of (label, target, positional count, keyword names). A call is
    on the library when its callee is a name from ``from vawgan... import`` or an
    attribute of one (``F.SyntheticSpec``)."""
    shapes = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text())
        imported = {  # the package's modules are imported above, so getattr finds them
            alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vawgan"
            for alias in node.names
        }
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name) and func.id in imported:
                label, base, attr = func.id, imported[func.id], None
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in imported:
                label, base, attr = f"{func.value.id}.{func.attr}", imported[func.value.id], func.attr
            else:
                continue
            shapes[label, len(node.args), tuple(sorted(k.arg for k in node.keywords))] = (base, attr)
    return [
        pytest.param(label, base, attr, positional, keywords,
                     id=f"{label}({positional}{''.join(', ' + k for k in keywords)})")
        for (label, positional, keywords), (base, attr) in sorted(shapes.items())
    ]


@pytest.mark.parametrize("label,base,attr,positional,keywords", _call_shapes())
def test_benchmark_call_binds(label, base, attr, positional, keywords):
    target = base if attr is None else getattr(base, attr, None)
    assert callable(target), f"perfbench/ calls {label}, which no longer exists"
    try:
        inspect.signature(target).bind_partial(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"perfbench/ calls {label} with {positional} positional arguments and "
                    f"keywords {list(keywords)}, which its signature rejects: {exc}")
