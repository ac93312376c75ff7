"""docs/API.md must be what scripts/make_api_md.py generates today."""

from __future__ import annotations

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_committed_api_reference_is_current():
    spec = importlib.util.spec_from_file_location(
        "make_api_md", REPO / "scripts" / "make_api_md.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    committed = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
    assert generator.render() == committed, (
        "docs/API.md is stale: run `python scripts/make_api_md.py`"
    )
