"""Every function the benchmark's tracer wraps must exist where it looks.

``perfbench/tracing.py`` names the functions it wraps by module and
name. A rename in ``treekeys`` would otherwise surface only when a traced
benchmark run fails to install its wrappers; here it fails the tests.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module_name, functions in table.items():
            module = importlib.import_module(f"treekeys.{module_name}")
            for function in functions:
                if "." in function:  # a method, wrapped through the class __dict__
                    cls_name, attr = function.split(".")
                    found = attr in vars(getattr(module, cls_name, object))
                else:
                    found = callable(getattr(module, function, None))
                if not found:
                    missing.append(f"{module_name}.{function}")
    assert missing == []
