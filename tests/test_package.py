"""The package namespace: every exported name resolves, and only once."""

from __future__ import annotations

import qfilter as qf


def test_exports_resolve_without_duplicates():
    names = qf.__all__
    assert len(names) == len(set(names)), "duplicate entries in qfilter.__all__"
    stale = [name for name in names if not hasattr(qf, name)]
    assert stale == [], f"qfilter.__all__ names missing attributes: {stale}"
