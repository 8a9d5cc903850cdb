"""Leading-order asymptotics of 3D oscillatory integrals with singular
amplitudes, validated against independent quadrature oracles."""

import importlib

from . import asym, core, detect, kelvin, oracle, problems

__all__ = ["asym", "cli", "core", "detect", "kelvin", "oracle", "problems"]
__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first access, so that `python -m oscint3.cli` does not
    # find it already imported by the package
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
