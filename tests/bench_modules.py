"""Load a module that lives beside its one benchmark.

Code whose only user is a benchmark (the PC baseline, rank fusion, the
Beta law of the null r²) sits in ``benchmarks/``, which is not an
importable package; its tests load it by path.  The module is entered
in ``sys.modules`` before it runs, as dataclasses need, and loaded once.
"""

import importlib.util
import pathlib
import sys

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def load_bench_module(filename: str):
    """The module ``benchmarks/<filename>``."""
    path = BENCHMARKS / filename
    name = f"benchmarks_{path.stem}"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
