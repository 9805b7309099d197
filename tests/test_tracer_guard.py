"""The benchmark's tracer (torbench/tracer.py) wraps torstab functions by
name and binds their arguments by parameter name.  These checks load it by
path, without installing any wrapper, so that a rename or deletion that
would break a traced benchmark run fails here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "torbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("torbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    for mod, fns in tracer.TRACED.items():
        module = importlib.import_module(f"torstab.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"torstab.{mod}.{fn}"


def test_hooked_parameters_exist():
    from torstab.simplex import solve_lp
    from torstab.stability import classify, destabilizer_bruteforce

    hooked = {
        solve_lp: ("a", "c"),
        classify: ("v",),
        destabilizer_bruteforce: ("v", "box_bound"),
    }
    for fn, params in hooked.items():
        assert set(params) <= set(inspect.signature(fn).parameters), fn.__name__
    # every hook belongs to a traced span
    tracer = load_tracer()
    assert set(tracer.Tracer()._hooks()) <= set(tracer.SPANS)
