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

import importlib

__version__ = "0.1.0"

# The names the README's Library section imports, each mapped to the
# submodule that defines it; everything else is imported from its submodule.
# A name is looked up on first use, so `import gamelab` loads no submodule.
_SOURCES = {
    "CRAM": "cram",
    "Convention": "core",
    "EUCLID": "heaps",
    "GridBoard": "cram",
    "NIM": "heaps",
    "Outcome": "core",
    "Phase": "push",
    "PushPosition": "push",
    "Solver": "core",
    "WYTHOFF": "heaps",
    "ZERUCLID": "heaps",
    "compound_ruleset": "push",
    "g007": "cram",
    "interval_compound_certificate": "periodicity",
    "is_nim_euclid_p": "push",
    "nim_euclid_pairs": "push",
    "subtraction": "heaps",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
