"""Spans and counters recorded from outside holovol, at its import sites.

Nothing under ``src/`` is edited: :class:`Tracer` replaces module attributes
and class methods with thin wrappers and puts the originals back on exit.
Names imported by value are patched where they are imported (``harness``
holds its own references to ``minimal_basis``, ``build_A`` and the rest), and
modules are taken from ``sys.modules`` because ``holovol.minimal_basis`` is
shadowed by the function of the same name.

A span records calls, total time and self time (total minus time spent in
nested spans).  Counters record work without timing it; the membership
predicate runs ~16k times per oracle point, so it is only counted.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

from holovol.errors import UnsupportedDomain

_SAMPLE_BACKENDS = ("HalfspaceConvex", "AffineBallImage", "Polydisc", "L1Ball",
                    "SiegelHalfSpace", "MembershipOracle")
_MOMENT_CLASSES = ("DiagBallMoments", "PolydiscMoments", "L1BallMoments",
                   "RadialProfile2D")
_VOLUME_FUNCS = ("certified_interval", "monotonicity_bounds", "quotient_lower_bound",
                 "bounded_domain_lower_bound", "compound_slack")
_DOMAIN_QUERIES = ("circumscribed_radius", "exact_volume_element", "diameter", "contains")


def _mod(name: str):
    return importlib.import_module(f"holovol.{name}")


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class LatencyRecorder(Patches):
    """Untraced mode: wall time of each ``harness.evaluate_point`` call only."""

    def __init__(self):
        super().__init__()
        self.samples: list[float] = []

    def __enter__(self):
        harness = _mod("harness")
        inner = harness.evaluate_point
        samples = self.samples

        def evaluate_point(*args, **kwargs):
            t0 = time.perf_counter()
            rec = inner(*args, **kwargs)
            samples.append(time.perf_counter() - t0)
            return rec

        self.set(harness, "evaluate_point", evaluate_point)
        return self


class Tracer(Patches):
    """Traced mode: spans at every layer boundary plus the work counters."""

    def __init__(self):
        super().__init__()
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = Counter()
        self._stack: list[list[float]] = []
        self._sampling = 0
        self._in_contains = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        stack, spans = self._stack, self.spans

        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                s = spans[name]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return wrapped

    def _wrap_in(self, owner, attr: str, name: str) -> None:
        self.set(owner, attr, self._span(name, getattr(owner, attr)))

    def _contains_many(self, cls):
        inner = cls.__dict__["contains_many"]
        counts = self.counts
        is_oracle = cls.__name__ == "MembershipOracle"

        def contains_many(dom, pts):
            rows = pts.shape[0]
            if is_oracle:
                counts["predicate_calls"] += 1
                counts["predicate_rows"] += rows
            if self._sampling and not self._in_contains:
                counts["sample_rows_tested"] += rows
            self._in_contains += 1
            try:
                return inner(dom, pts)
            finally:
                self._in_contains -= 1

        return contains_many

    def _sample_interior(self, fn):
        counts = self.counts

        def sample_interior(*args, **kwargs):
            before = counts["sample_rows_tested"]
            self._sampling += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._sampling -= 1
            counts["sample_rows_returned"] += out.shape[0]
            if counts["sample_rows_tested"] == before:
                # direct sampler: every drawn row is kept
                counts["sample_rows_tested"] += out.shape[0]
            return out

        return self._span("domains.sample_interior", sample_interior)

    def _kernel(self, fn, name):
        counts = self.counts

        def kernel(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except UnsupportedDomain:
                counts["kernel_unsupported"] += 1
                raise

        return self._span(name, kernel)

    def _moment(self, cls):
        inner = cls.__dict__["moment"]
        counts = self.counts

        def moment(obj, alpha):
            counts["moment_evals"] += 1
            return inner(obj, alpha)

        return moment

    # -- install -----------------------------------------------------------

    def __enter__(self):
        import scipy.optimize

        harness, mb, norm = _mod("harness"), _mod("minimal_basis"), _mod("normalization")
        domains, bergman = _mod("domains"), _mod("bergman")

        self._wrap_in(harness, "run_scenario", "harness.run_scenario")
        self._wrap_in(harness, "evaluate_point", "harness.evaluate_point")
        for name in ("emit_json", "emit_csv"):
            self._wrap_in(harness, name, "harness.emit")
        self._wrap_in(harness, "minimal_basis", "minimal_basis")
        self._wrap_in(mb, "polar_first_exit", "geometry.polar_first_exit")
        self._wrap_in(mb, "nearest_on_quadric", "geometry.nearest_on_quadric")
        self._wrap_in(harness, "build_A", "normalization.build_A")
        self._wrap_in(harness, "verify_normalization", "normalization.verify")
        for fname in _VOLUME_FUNCS:
            self._wrap_in(harness, fname, "volume_elements")
        for fname in _DOMAIN_QUERIES:
            self._wrap_in(harness, fname, "domains.queries")
        for owner in (harness, norm):
            self.set(owner, "sample_interior", self._sample_interior(owner.sample_interior))
        # normalization binds linprog at import; domains imports it inside
        # its functions, so the scipy attribute is what domains sees
        self._wrap_in(norm, "linprog", "normalization.lp")
        self._wrap_in(scipy.optimize, "linprog", "domains.lp")
        for cls_name in _SAMPLE_BACKENDS:
            cls = getattr(domains, cls_name)
            self.set(cls, "contains_many", self._contains_many(cls))
        for fname in ("bergman_closed", "bergman_reinhardt"):
            self.set(bergman, fname, self._kernel(getattr(bergman, fname), "bergman.kernel"))
        for cls_name in _MOMENT_CLASSES:
            cls = getattr(bergman, cls_name)
            self.set(cls, "moment", self._moment(cls))
        return self

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def total(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def layer_self_times(self) -> dict:
        out: dict = defaultdict(float)
        for name, (_, _, self_s) in self.spans.items():
            out[name.split(".")[0]] += self_s
        return dict(out)
