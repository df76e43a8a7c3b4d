"""Spans and counts around the public functions of each ballcell module.

The tracer wraps functions from outside the package, at the module attribute
each caller resolves (``ballcell.pgf.transition_row`` is the name `pgf` calls,
``ballcell.approx.transition_row`` the one `approx` calls), keeps every span
in memory as (layer, start, end, parent, request, note), and restores the
originals on exit.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import Counter, defaultdict


def _nontrivial_gcd(result) -> int:
    return 0 if result.is_constant() else 1


def _exact_division(result) -> int:
    return 1


def _rounds(result) -> int:
    return result if isinstance(result, int) else result[0]


# (owner, attribute, layer, note).  An owner is a module path, or a module
# path and a class name for methods and classmethods.  `note` maps a result
# to the number kept in the span (0 when the call raised): a non-constant
# gcd, an exact division that succeeded, the rounds a game took.
TARGETS = (
    ("ballcell.cli", "run", "cli", None),
    ("ballcell.cli", "pgf_numeric", "pgf.numeric", None),
    ("ballcell.pgf", "pgf_numeric", "pgf.numeric", None),
    ("ballcell.cli", "pgf_symbolic", "pgf.symbolic", None),
    ("ballcell.cli", "symbolic_den_factors", "pgf.symbolic", None),
    ("ballcell.pgf", "pgf_symbolic", "pgf.symbolic", None),
    ("ballcell.cli", "moments", "pgf.moments", None),
    ("ballcell.cli", "moments_symbolic", "pgf.moments", None),
    ("ballcell.approx", "expected_duration", "pgf.mean_tables", None),
    ("ballcell.approx", "duration_variance", "pgf.mean_tables", None),
    ("ballcell.montecarlo", "exact_distribution", "pgf.distribution", None),
    ("ballcell.cli", "approx_report", "approx.report", None),
    ("ballcell.cli", "error_limit", "approx.limit", None),
    ("ballcell.pgf", "transition_row", "game.rows", None),
    ("ballcell.approx", "transition_row", "game.rows", None),
    ("ballcell.pgf", "transition_prob_symbolic", "game.symbolic_rows", None),
    ("ballcell.ratfuncs", "poly_gcd", "polys.gcd", _nontrivial_gcd),
    ("ballcell.polys", "poly_gcd", "polys.gcd", _nontrivial_gcd),
    ("ballcell.ratfuncs", "poly2_gcd", "polys.gcd2", None),
    ("ballcell.pgf", "poly2_div_exact", "polys.div_exact", _exact_division),
    ("ballcell.ratfuncs", "poly2_div_exact", "polys.div_exact", _exact_division),
    ("ballcell.polys", "poly2_div_exact", "polys.div_exact", _exact_division),
    (("ballcell.ratfuncs", "RatFunc"), "series", "ratfuncs.series", None),
    (("ballcell.ratfuncs", "RatFunc2"), "series", "ratfuncs.series", None),
    ("ballcell.cli", "ratfunc_text", "ratfuncs.render", None),
    ("ballcell.cli", "ratfunc_latex", "ratfuncs.render", None),
    ("ballcell.cli", "ratfunc_to_json", "ratfuncs.render", None),
    ("ballcell.cli", "poly2_to_json", "ratfuncs.render", None),
    ("ballcell.montecarlo", "simulate_game", "montecarlo.play", _rounds),
    ("ballcell.cli", "simulate_game_verbose", "montecarlo.play", _rounds),
    ("ballcell.cli", "simulate_batch", "montecarlo.batch", None),
    (("ballcell.montecarlo", "DurationLaw"), "compute", "montecarlo.law", None),
    ("ballcell.cli", "gof_compare", "montecarlo.gof", None),
)

# Layers whose self time is reported, in report order.
TIMED_LAYERS = (
    "polys.gcd", "polys.gcd2", "polys.div_exact",
    "pgf.numeric", "pgf.symbolic", "pgf.moments", "pgf.mean_tables", "pgf.distribution",
    "approx.report", "approx.limit", "game.rows",
    "ratfuncs.series", "ratfuncs.render",
    "montecarlo.play", "montecarlo.law", "montecarlo.gof", "montecarlo.batch",
    "cli.self",
)


class Tracer:
    """Use as a context manager around the requests, setting `request`
    before each one; `spans` then holds (layer, start, end, parent, request,
    note) for every call."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, layer: str, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.request, 0)
            if note is not None:
                spans[index] = (layer, start, end, parent, self.request, note(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, layer, note in TARGETS:
            if isinstance(owner, tuple):
                target = getattr(importlib.import_module(owner[0]), owner[1])
            else:
                target = importlib.import_module(owner)
            original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
            self._saved.append((target, attr, original))
            if isinstance(original, classmethod):
                setattr(target, attr, classmethod(self._wrap(original.__func__, layer, note)))
            else:
                setattr(target, attr, self._wrap(original, layer, note))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def self_times(self, requests: range) -> dict[str, float]:
        """Self time per layer over the spans of the given requests; the
        `cli` layer's self time is reported as `cli.self`."""
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for index, (layer, start, end, _, request, _) in enumerate(self.spans):
            if request in requests:
                out["cli.self" if layer == "cli" else layer] += end - start - child[index]
        return out

    def tally(self, requests: range) -> tuple[Counter, Counter]:
        """Calls and summed notes per layer over the given requests."""
        calls, notes = Counter(), Counter()
        for layer, _, _, _, request, kept in self.spans:
            if request in requests:
                calls[layer] += 1
                notes[layer] += kept
        return calls, notes

    def write(self, path) -> None:
        """All spans as gzip'd CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("layer,start,end,parent,request,note\n")
            for layer, start, end, parent, request, kept in self.spans:
                fh.write(f"{layer},{start:.9f},{end:.9f},{parent},{request},{kept}\n")
