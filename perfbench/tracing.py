"""Span tracing of the program's layers, installed at run time from outside.

A layer is a set of public functions (or methods) of one module.  Installing a
``Tracer`` replaces every reference to those functions in the loaded
``conemorse`` modules, including names one module imported from another (such
as ``complexes.rank``), with a wrapper that records a span.  Spans nest on a
stack: a span's self time is its duration minus the durations of the spans it
directly contains, so the self times of all layers plus the root span's self
time add up to the root span's duration exactly.  Spans are aggregated per
layer as they close instead of being stored.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

ROOT = "op"


def _matrix_entries(args, kwargs, result):
    matrix = args[0]
    extra = args[1].cols if len(args) > 1 else 0  # solve: the right-hand side
    return matrix.rows * (matrix.cols + extra)


def _form_storage(args, kwargs, result):
    """Unknowns and bytes of an assembled (dense) form."""
    return result.shape[0], result.nbytes


def layers():
    """Layer name -> list of (module, attribute path, measure or None)."""
    return {
        "cli.main": [("conemorse.cli", "main", None)],
        "cli.load_datum": [("conemorse.cli", "load_datum", None)],
        "cli.emit": [
            ("conemorse.inequalities", name, None)
            for name in ("report_to_json", "report_to_text", "report_to_csv")
        ]
        + [
            ("conemorse.spectral", name, None)
            for name in ("eigenvalues_to_csv", "gap_growth_to_csv")
        ],
        "morse.validate_datum": [("conemorse.morse", "validate_datum", None)],
        "morse.morse_complex": [("conemorse.morse", "morse_complex", None)],
        "inequalities.cone_report": [("conemorse.inequalities", "cone_report", None)],
        "complexes.cohomology": [("conemorse.complexes", "cohomology", None)],
        "complexes.induced_map_ranks": [
            ("conemorse.complexes", "induced_map_ranks", None),
            ("conemorse.complexes", "induced_cohomology_maps", None),
        ],
        "complexes.mapping_cone": [("conemorse.complexes", "mapping_cone", None)],
        "complexes.validate": [
            ("conemorse.complexes", "validate_complex", None),
            ("conemorse.complexes", "validate_chain_map", None),
        ],
        "ratlinalg.eliminate": [
            ("conemorse.ratlinalg", name, _matrix_entries)
            for name in ("rank", "nullspace_basis", "column_space_basis", "solve")
        ],
        "ratlinalg.matmul": [("conemorse.ratlinalg", "RationalMatrix.__matmul__", None)],
        "families": [  # the entry points set-up calls; helpers count as their self time
            ("conemorse.families", name, None)
            for name in ("torus", "projective_space", "s2_bundle_over_k3", "synthetic_from_rank_profile")
        ],
        "spectral.report": [("conemorse.spectral", "spectral_report", None)],
        "spectral.assemble": [
            ("conemorse.spectral", "assemble_quadratic_form", _form_storage)
        ],
        "spectral.eigensolve": [("conemorse.spectral", "low_spectrum", None)],
        "spectral.quasimode": [("conemorse.spectral", "quasimode", None)],
    }


class Tracer:
    """Per-layer self time, call counts and work counters of traced calls."""

    def __init__(self, selected=None):
        self.selected = selected
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.entries = 0  # matrix entries handed to elimination
        self.max_unknowns = 0
        self.max_form_bytes = 0
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, layer, frame, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed

    def root(self, fn):
        """Run fn() as the root span of one operation; returns (result, seconds)."""
        frame, start = self._open()
        try:
            result = fn()
        finally:
            elapsed = self._close(ROOT, frame, start)
        return result, elapsed

    def wrap(self, fn, layer, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, frame, start)
            if measure is not None:
                self._record(measure(args, kwargs, result))
            return result

        return traced

    def _record(self, value):
        if isinstance(value, tuple):
            self.max_unknowns = max(self.max_unknowns, value[0])
            self.max_form_bytes = max(self.max_form_bytes, value[1])
        else:
            self.entries += value

    # -- installing --------------------------------------------------------

    def install(self):
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "conemorse"]
        for layer, targets in layers().items():
            if self.selected is not None and layer not in self.selected:
                continue
            for module_name, path, measure in targets:
                owner = sys.modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self.wrap(original, layer, measure)
                if outer:  # a method: patch the class once
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
