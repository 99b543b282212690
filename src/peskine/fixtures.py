"""Loaders for the fixture data shipped inside the package."""

from __future__ import annotations

from importlib import resources

from .polyring import MultiPoly, parse_poly
from .trivector import Trivector, parse_trivector


def _read(name: str) -> str:
    return (
        resources.files("peskine").joinpath(f"fixtures/{name}").read_text("utf-8")
    )


def appendix_sigma_text() -> str:
    return _read("appendix_sigma.tvec")


def appendix_sigma() -> Trivector:
    """The distinguished trivector with an isolated singular point."""
    return parse_trivector(appendix_sigma_text())


def appendix_cubic_text() -> str:
    return _read("appendix_cubic.poly")


def appendix_cubic() -> MultiPoly:
    """The smooth cubic fourfold carved out by the distinguished flag."""
    return parse_poly(appendix_cubic_text(), 6, prefix="v")


def table1_text() -> str:
    return _read("table1.fixture")
