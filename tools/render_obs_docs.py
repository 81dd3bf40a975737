#!/usr/bin/env python3
"""Rewrite the catalogue-rendered sections of ``docs/OBSERVABILITY.md``.

The hook and metric tables between the ``<!-- catalogue:NAME -->``
markers are whatever :func:`repro.obs.catalogue.render_docs` produces;
``tools/check_docs.py`` fails when the committed file differs.  Run
after editing the catalogue, from anywhere:

    python tools/render_obs_docs.py
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.obs.catalogue import render_docs  # noqa: E402


def main() -> int:
    path = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    rendered = render_docs(text)
    if rendered != text:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    print(f"{os.path.relpath(path, REPO_ROOT)}: "
          + ("rewritten" if rendered != text else "already current"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
