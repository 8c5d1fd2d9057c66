"""Access to the bundled LSI system model."""
from __future__ import annotations

from .dsl import Model, parse


def lsi_text() -> str:
    """The bundled LSI model source."""
    from importlib import resources  # here, so importing opmodel skips it
    return (resources.files(__package__) / "data" / "lsi.opm").read_text(
        encoding="utf-8")


def load_lsi() -> Model:
    """Parse the bundled LSI model."""
    return parse(lsi_text())
