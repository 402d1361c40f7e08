"""Exact solvers, closed forms, and certificates for impartial heap games.

The package revolves around three layers:

- `core`: memoized outcome/Grundy evaluation for any finite acyclic ruleset,
  the ground truth everything else is checked against;
- closed forms: P-position tests for the base games (`heaps`, `arith`), the
  push-the-button compounds (`push`), three-heap structure (`zeruclid`),
  subtraction-compound periodicity (`periodicity`), and the two-phase domino
  game (`cram`);
- `verify`: sweeps that re-derive every closed form from brute search, also
  exposed through the `gamelab` command line (`cli`).
"""

from .core import Convention, Outcome, Solver
from .cram import cram_outcome, empty_board, g007
from .heaps import EUCLID, NIM, WYTHOFF, ZERUCLID, subtraction
from .periodicity import interval_compound_certificate
from .push import (
    Phase,
    PushPosition,
    compound_ruleset,
    is_nim_euclid_p,
    nim_euclid_pairs,
)

__version__ = "0.1.0"

# The names the README's Library section imports; everything else is
# imported from its submodule.
__all__ = [
    "Convention",
    "EUCLID",
    "NIM",
    "Outcome",
    "Phase",
    "PushPosition",
    "Solver",
    "WYTHOFF",
    "ZERUCLID",
    "compound_ruleset",
    "cram_outcome",
    "empty_board",
    "g007",
    "interval_compound_certificate",
    "is_nim_euclid_p",
    "nim_euclid_pairs",
    "subtraction",
]
