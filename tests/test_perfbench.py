import importlib
import importlib.util
from pathlib import Path

INPROC = Path(__file__).resolve().parents[1] / "perfbench" / "inproc.py"


def test_every_traced_name_resolves():
    # a renamed or deleted function would make its metrics absent in the
    # benchmark; here it fails the suite instead
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    missing = []
    for name, module, path, *_ in inproc.Tracer().targets():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module}.{path}")
    assert missing == []
