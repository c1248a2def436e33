"""Exact finite-depth toolkit for self-induced minimal Cantor systems.

Modules by object of study:

- words         alphabets, words, languages, cylinders, block codes
- substitution  primitive substitutions and their subshifts
- odometer      adding machines via characteristic sequences and valuations
- bratteli      ordered Bratteli-Vershik diagrams and their dynamics
- gensub        generalized substitutions on compact zero-dimensional alphabets
- product       the subshift x odometer product example
- cli           command-line front end and document formats

Everything is horizon-bounded and exact: languages are stored up to a
declared length, measures are rational whenever the Perron eigenvalue is,
and every verification is an explicit finite check whose depth is reported.

Importing the package loads only `errors` and `words`; every other module
is loaded on first attribute access, so each command imports only its own
group.
"""

import importlib

from . import errors, words
from .words import (
    Alphabet,
    BlockCode,
    ClopenSet,
    Cylinder,
    Language,
    SystemHandle,
    Word,
    apply_block_code,
    factor_complexity,
    kblock_present,
    overlap_blocks,
)

_LAZY = ("bratteli", "gensub", "matrixutil", "odometer", "product", "substitution")

__all__ = [
    "bratteli",
    "errors",
    "gensub",
    "odometer",
    "product",
    "substitution",
    "words",
    "Alphabet",
    "BlockCode",
    "ClopenSet",
    "Cylinder",
    "Language",
    "SystemHandle",
    "Word",
    "apply_block_code",
    "factor_complexity",
    "kblock_present",
    "overlap_blocks",
]


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
