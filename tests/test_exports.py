"""Names other code pins down: the benchmark's traced layers and the package exports."""

import ast
import importlib
import runpy
from pathlib import Path

import peskine

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_layer_resolves():
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    for module, names in layers.items():
        namespace = importlib.import_module(f"peskine.{module}")
        for name in names:
            assert callable(getattr(namespace, name, None)), f"peskine.{module}.{name}"


def test_every_export_imports():
    tree = ast.parse(Path(peskine.__file__).read_text())
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exports
    for module, name in exports:
        assert getattr(peskine, name) is getattr(importlib.import_module(f"peskine.{module}"), name)
