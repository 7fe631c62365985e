"""The package namespace: every exported name resolves, and only once."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import qfilter as qf


def test_exports_resolve_without_duplicates():
    names = qf.__all__
    assert len(names) == len(set(names)), "duplicate entries in qfilter.__all__"
    stale = [name for name in names if not hasattr(qf, name)]
    assert stale == [], f"qfilter.__all__ names missing attributes: {stale}"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats was most of the import time, for one chi-square tail
    pkg_root = str(Path(qf.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {pkg_root!r}); import qfilter, qfilter.cli; "
            "print('scipy.stats' in sys.modules); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    stats_loaded, scipy_modules = res.stdout.splitlines()
    assert stats_loaded == "False"
    # the rest of scipy was most of what remained, for three calls that load
    # it themselves (expm, solve_banded, the chi-square tail)
    assert scipy_modules == "[]"
