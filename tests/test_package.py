import os
import subprocess
import sys
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
