import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import xlbeam


def test_import_loads_no_third_party_module_but_numpy():
    # scipy and the other test dependencies serve only the tests, and what
    # the import loads sits under every run's peak.  -S keeps the site
    # hooks (.pth files) out, so the paths to xlbeam and numpy are given.
    paths = [str(Path(m.__file__).resolve().parent.parent) for m in (xlbeam, np)]
    code = ("import sys, xlbeam; "
            "std = {'__main__', *sys.stdlib_module_names, *sys.builtin_module_names}; "
            "print(sorted({m.split('.')[0] for m in sys.modules} - std))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)), check=True)
    assert out.stdout.strip() == "['numpy', 'xlbeam']"


def test_names_the_benchmark_uses_exist():
    # benchmarks/workload.py imports these from xlbeam; a missing one would
    # fail every benchmark run rather than one test
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workload.py"
    tree = ast.parse(path.read_text())
    aliases, wanted = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name.split(".")[0] == "xlbeam"})
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "xlbeam":
            for a in node.names:
                obj = getattr(importlib.import_module(node.module), a.name, None)
                if isinstance(obj, types.ModuleType):
                    aliases[a.asname or a.name] = obj.__name__
                else:
                    wanted.append((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            wanted.append((aliases[node.value.id], node.attr))
    spec = importlib.util.spec_from_file_location("benchmark_workload", path)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    # the drivers are looked up by name on the experiments module
    wanted += [("xlbeam.harness.experiments", w["driver"])
               for w in workload.WORKLOADS.values()]
    assert {name for _, name in wanted} >= {"workspace", "ExperimentSpec",
                                             "tracking_experiment", "TrackerConfig"}
    missing = [f"{module}.{name}" for module, name in wanted
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
