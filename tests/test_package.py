import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import xlbeam


def test_import_loads_no_scipy():
    # scipy serves only the test oracles; the runtime package must not pull it in
    src = str(Path(xlbeam.__file__).resolve().parent.parent)
    code = ("import sys, xlbeam; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "[]"


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
