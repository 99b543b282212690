"""Names other code pins down: the benchmark's traced layers and the package exports."""

import ast
import importlib
import runpy
from pathlib import Path

import peskine
import peskine.cli

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


def test_the_tracer_sees_the_groebner_run(capsys):
    # one verify-appendix: one Groebner run over Z/(10007*31013), 6
    # partials and 37 S-pair remainders, and one Euler normal form
    tracer = runpy.run_path(str(SPANS))["Tracer"](peskine)
    with tracer.installed("appendix"):
        assert peskine.cli.main(["verify-appendix"]) == 0
    assert capsys.readouterr().out.endswith("verify-appendix: PASS\n")
    spans = tracer.spans
    [main] = [i for i, span in enumerate(spans) if span[0] == "cli.main"]
    for name in ("polyring.buchberger", "polyring.normal_form"):
        [up] = [span[3] for span in spans if span[0] == name]
        while up >= 0 and up != main:
            up = spans[up][3]
        assert up == main, name
    assert tracer.layer_metrics(1)["polyring.buchberger.basis_size"] == 43
