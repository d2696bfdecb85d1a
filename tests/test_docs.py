"""Documentation integrity tests."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class TestDocsExist:
    def test_required_files(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/THEORY.md", "docs/SIMULATOR.md", "docs/API.md",
                     "LICENSE", "CHANGELOG.md"):
            assert (ROOT / name).exists(), name

    def test_readme_mentions_all_examples(self):
        readme = (ROOT / "README.md").read_text()
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in readme, script.name

    def test_design_inventory_mentions_every_subpackage(self):
        design = (ROOT / "DESIGN.md").read_text()
        for pkg in ("core", "topologies", "graphs", "routing",
                    "simulation", "faults", "cost", "experiments"):
            assert pkg in design


class TestApiDocGenerator:
    def test_document_module_output(self):
        sys.path.insert(0, str(ROOT / "scripts"))
        try:
            from gen_api_docs import document_module
        finally:
            sys.path.pop(0)
        lines = document_module("repro.core.theory")
        text = "\n".join(lines)
        assert "threshold_radix" in text
        assert "updown_probability" in text

    def test_api_md_matches_generator(self):
        """docs/API.md is exactly what the generator renders from the
        source; rerun ``python scripts/gen_api_docs.py`` after an API
        change."""
        sys.path.insert(0, str(ROOT / "scripts"))
        try:
            from gen_api_docs import render
        finally:
            sys.path.pop(0)
        api = (ROOT / "docs" / "API.md").read_text()
        assert render() == api

    def test_api_md_covers_core_symbols(self):
        api = (ROOT / "docs" / "API.md").read_text()
        for symbol in ("radix_regular_rfc", "UpDownRouter", "Simulator",
                       "disconnection_fraction", "orthogonal_fat_tree"):
            assert symbol in api, symbol
