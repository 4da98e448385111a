"""Every public name the per-layer tracer in perfbench/layers.py wraps must
still exist on the stcsolve package: the tracer reports a missing one as
absent, so a refactor that drops or renames it would silently remove a
traced metric."""

from pathlib import Path

import stcsolve

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def traced_names() -> dict[str, str]:
    """span name -> public name, from LAYERS (compiled from the source, so
    nothing is written next to it)."""
    ns: dict = {"__name__": "perfbench_layers"}
    exec(compile(LAYERS_PY.read_text(encoding="utf-8"), str(LAYERS_PY), "exec"), ns)
    return {span: public for span, (public, _info) in ns["LAYERS"].items()}


def test_every_traced_layer_resolves_on_the_package():
    names = traced_names()
    assert names
    missing = []
    for span, public in names.items():
        obj = stcsolve
        for part in public.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((span, public))
    assert missing == []
