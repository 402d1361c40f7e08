"""Span tracing for the benchmark's traced runs.

Spans are opened by wrappers that the benchmark installs around public
callables of the program: the `options` and `canonical` callables of the
rulesets it hands to the solver, and module functions rebound in the
namespace where their caller looks them up.  Nothing under `src/` is edited.

Every span adds its duration minus the time covered by its child spans to
its name's self time, and bumps its name's call count, as it closes.  Only
the outer spans (the op and the layer calls made directly from it) are kept
as records `(name, start, end, parent index, op id)`: a single Push Cram
round opens millions of callback spans, too many to hold in memory.  The
kept records are written out when the run ends.
"""

from __future__ import annotations

import copy
import json
import time
from collections import Counter, defaultdict

KEEP_DEPTH = 2


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[list] = []  # open spans: [name, start, child seconds, kept index]
        self._wrappers: dict = {}
        self._rulesets: dict = {}
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        kept = -1
        if len(self._stack) < KEEP_DEPTH:
            parent = self._stack[-1][3] if self._stack else -1
            kept = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = [name, time.perf_counter(), 0.0, kept]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, kept = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if kept >= 0:
            self.spans[kept][1:3] = [start, end]

    def wrap(self, name: str, fn, counter: str | None = None, size_counter: str | None = None):
        """`fn` run inside a `name` span.  Each call also bumps `counter`, and
        adds the number of items returned to `size_counter`.  The same
        arguments give the same wrapper object, so callables the program
        compares by identity stay identical."""
        key = (name, fn, counter, size_counter)
        wrapper = self._wrappers.get(key)
        if wrapper is not None:
            return wrapper
        counts = self.counts

        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if counter:
                counts[counter] += 1
            if size_counter:
                counts[size_counter] += len(result)
            return result

        self._wrappers[key] = wrapper
        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def ruleset(self, ruleset, layer: str, solver_facing: bool = True):
        """A copy of `ruleset` whose callables run in `layer.options` and
        `layer.canonical` spans.  When the solver itself calls them, each
        options call is one node expanded, each returned option one option
        generated, and each canonical call one canonicalization."""
        key = (id(ruleset), layer, solver_facing)
        if key not in self._rulesets:
            traced = copy.copy(ruleset)
            traced._options = self.wrap(
                f"{layer}.options",
                ruleset.options,
                "core.nodes_expanded" if solver_facing else None,
                "core.options_generated" if solver_facing else None,
            )
            if ruleset.canonical is not None:
                traced.canonical = self.wrap(
                    f"{layer}.canonical",
                    ruleset.canonical,
                    "core.canonical_calls" if solver_facing else None,
                )
            self._rulesets[key] = (ruleset, traced)  # keeps id(ruleset) unique
        return self._rulesets[key][1]

    def replace(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def patch(self, owner, name: str, span: str) -> None:
        self.replace(owner, name, self.wrap(span, getattr(owner, name)))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def merge(self, summary: dict) -> None:
        self.calls.update(summary["calls"])
        self.counts.update(summary["counts"])
        for name, seconds in summary["self_s"].items():
            self.self_s[name] += seconds

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def install_library(tracer: Tracer) -> dict:
    """Trace the library layers shared by every workload.

    Returns the traced rulesets the workloads hand to the solver: the four
    push compounds by name, plus Zeruclid and Push Cram.  The module names
    the program looks up at call time are rebound to the same objects, so
    library code paths (the bound check, the heatmap, the CLI) use them too.
    """
    from gamelab import arith, core, cram, heaps, periodicity, push, zeruclid

    inner = {}
    for r1, r2 in push.COMPOUNDS.values():
        for r in (r1, r2):
            inner[id(r)] = tracer.ruleset(r, "heaps", solver_facing=False)
    compounds = {
        name: tracer.ruleset(push.push_ruleset(inner[id(r1)], inner[id(r2)]), "push")
        for name, (r1, r2) in push.COMPOUNDS.items()
    }
    zer = tracer.ruleset(heaps.ZERUCLID, "heaps")
    cram_rules = tracer.ruleset(cram.CRAM, "cram")

    tracer.patch(core.Solver, "outcome", "core")
    tracer.patch(core.Solver, "grundy", "core")
    tracer.patch(cram, "legal_moves", "cram.legal_moves")
    tracer.patch(cram, "post_button_value", "cram.post_button_value")
    tracer.replace(cram, "CRAM", cram_rules)
    tracer.replace(zeruclid, "ZERUCLID", zer)
    tracer.patch(zeruclid, "zeruclid_bound_check", "zeruclid.bound_check")
    subtraction = periodicity.subtraction
    tracer.replace(
        periodicity, "subtraction", lambda values: tracer.ruleset(subtraction(values), "heaps")
    )
    tracer.patch(push, "zeckendorf", "arith.zeckendorf")
    tracer.patch(push, "floor_phi", "arith.floor_phi")
    tracer.patch(arith, "floor_phi", "arith.floor_phi")
    tracer.patch(periodicity, "certified_period", "periodicity.certify")
    tracer.patch(cram, "certified_split_period", "periodicity.certify")
    return {"compounds": compounds, "zeruclid": zer, "cram": cram_rules}


def install_cli(tracer: Tracer) -> None:
    """Trace a CLI process: the library layers plus the names `gamelab.cli`
    imported from them."""
    from gamelab import cli

    traced = install_library(tracer)
    tracer.replace(cli, "compound_ruleset", lambda name: traced["compounds"][name])
    tracer.replace(cli, "ZERUCLID", traced["zeruclid"])
    tracer.replace(cli, "CRAM", traced["cram"])
    tracer.patch(cli, "push_p_oracle", "push.oracle")
