"""In-memory spans around the package's public functions, for traced runs.

``Tracer.installed()`` replaces each function in ``SPANS`` with a timing
wrapper in every module namespace that binds it (``observables`` calls
``log_partition`` through its own ``from .engine import`` binding, for
example), and puts the originals back on exit.  Methods are wrapped on
their class.  Spans stay in memory; ``Summary`` turns them into per-layer
counts and self times, where a span's self time is its duration minus the
durations of the spans it directly caused.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

PACKAGE = "hardcore2d"
MODULES = ("cli", "observables", "engine", "disorder", "mcmc", "oracle", "validation", "lattice")

VALIDATION_CHECKS = (
    "check_oracle_equivalence",
    "check_derivative_identity",
    "check_translation_covariance",
    "check_reflection_symmetry",
    "check_influence_sign",
    "check_annulus_and_pathwise",
    "check_estimate_bound",
    "check_step1_mean",
    "check_monotone_order",
    "check_cftp_exactness",
)

SPANS = (
    "cli.main",
    "disorder.sample_field",
    "disorder.ActivityField.compose",
    "disorder.ActivityField.switched_off",
    "disorder.ActivityField.patched",
    "engine.log_partition",
    "engine.occupation_probabilities",
    "engine.sample_exact",
    "observables.response_gap",
    "observables.annulus_bound_check",
    "observables.pathwise_gap_bound",
    "observables.boundary_influence",
    "mcmc.cftp_sample",
    "oracle.enumerate_independent_sets",
    "oracle.oracle_log_partition",
    "oracle.oracle_occupations",
    *(f"validation.{name}" for name in VALIDATION_CHECKS),
    "lattice.BoundaryCondition.frame_occupied",
)

# Spans each workload must produce; a traced run that misses one fails.
REQUIRED = {
    "replica_sweep": (
        "cli.main", "disorder.sample_field", "disorder.ActivityField.compose",
        "disorder.ActivityField.switched_off", "engine.log_partition",
        "engine.occupation_probabilities", "observables.response_gap",
        "observables.annulus_bound_check", "observables.pathwise_gap_bound",
        "observables.boundary_influence", "lattice.BoundaryCondition.frame_occupied",
    ),
    "large_box": (
        "cli.main", "disorder.sample_field", "engine.log_partition",
        "engine.occupation_probabilities", "lattice.BoundaryCondition.frame_occupied",
    ),
    "perfect_sampling": (
        "cli.main", "disorder.sample_field", "engine.sample_exact", "mcmc.cftp_sample",
        "lattice.BoundaryCondition.frame_occupied",
    ),
    "validate": (
        "cli.main", "disorder.ActivityField.patched", "engine.log_partition",
        "engine.sample_exact", "mcmc.cftp_sample", "oracle.enumerate_independent_sets",
        "oracle.oracle_log_partition", "oracle.oracle_occupations",
        *(f"validation.{name}" for name in VALIDATION_CHECKS),
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the causing span, -1 for an op's top span


@dataclass
class Summary:
    """Per-layer totals over a set of traced ops."""

    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(SPANS, 0))
    self_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(SPANS, 0.0))
    total_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(SPANS, 0.0))
    sites_sampled: int = 0
    draws: int = 0
    epochs: int = 0
    sweeps: int = 0
    final_epoch_sweeps: int = 0
    site_updates: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # per-call facts taken from arguments and results, keyed by span index
        self.sites: dict[int, int] = {}
        self.cftp: dict[int, tuple[int, int, int]] = {}

    def clear(self) -> None:
        self.spans.clear()
        self.sites.clear()
        self.cftp.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = time.perf_counter()
            if note is not None:
                note(self, idx, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        undo: list[tuple[object, str, object]] = []
        try:
            for name in SPANS:
                mod_name, *path = name.split(".")
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
                wrapped = self._wrap(name, original)
                targets = [owner] if len(path) > 1 else modules
                for target in targets:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            undo.append((target, attr, value))
                            setattr(target, attr, wrapped)
            yield self
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)

    def check_and_add(self, summary: Summary, wall: float) -> str | None:
        """Fold this op's spans into ``summary``; None when they are sound.

        Sound means: every span lies inside the span that caused it, the top
        span is ``cli.main``, and the self times sum to at most ``wall``.
        """
        child_s = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent < 0:
                if sp.name != "cli.main":
                    return f"top-level span {sp.name}"
                continue
            parent = self.spans[sp.parent]
            if not (parent.start <= sp.start and sp.end <= parent.end):
                return f"span {sp.name} escapes {parent.name}"
            child_s[sp.parent] += sp.end - sp.start
        self_total = 0.0
        for sp, inner in zip(self.spans, child_s):
            own = sp.end - sp.start - inner
            self_total += own
            summary.calls[sp.name] += 1
            summary.self_s[sp.name] += own
            summary.total_s[sp.name] += sp.end - sp.start
        if self_total > wall:
            return f"self times sum to {self_total:.6f} s, more than the op's {wall:.6f} s"
        summary.sites_sampled += sum(self.sites.values())
        for epochs, sweeps, sites in self.cftp.values():
            summary.draws += 1
            summary.epochs += epochs
            summary.sweeps += sweeps
            summary.final_epoch_sweeps += 1 << (epochs - 1)
            summary.site_updates += 2 * sweeps * sites
        return None


def _note_sample_field(tracer, idx, args, kwargs, result):
    tracer.sites[idx] = result.region.site_count


def _note_cftp(tracer, idx, args, kwargs, result):
    box = args[0] if args else kwargs["box"]
    tracer.cftp[idx] = (result.epochs, result.sweeps_used, box.site_count)


_NOTES = {"disorder.sample_field": _note_sample_field, "mcmc.cftp_sample": _note_cftp}


def per_layer_metrics(summary: Summary, csv_bytes_per_op: float, overhead: float) -> dict:
    """Every per-layer metric of the benchmark, with its unit."""
    s = summary
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = (s.calls[name], "count")
        out[f"{name}.self_s"] = (s.self_s[name], "s")
    lp = "engine.log_partition"
    out[f"{lp}.us_per_call"] = (1e6 * s.total_s[lp] / s.calls[lp] if s.calls[lp] else 0.0, "us")
    sf = "disorder.sample_field"
    out[f"{sf}.us_per_site"] = (1e6 * s.self_s[sf] / s.sites_sampled if s.sites_sampled else 0.0, "us")
    cftp_self = s.self_s["mcmc.cftp_sample"]
    out["mcmc.sweeps_per_draw"] = (s.sweeps / s.draws if s.draws else 0.0, "count")
    out["mcmc.epochs_per_draw"] = (s.epochs / s.draws if s.draws else 0.0, "count")
    out["mcmc.site_updates_per_s"] = (s.site_updates / cftp_self if cftp_self else 0.0, "1/s")
    out["mcmc.useful_sweep_ratio"] = (s.final_epoch_sweeps / s.sweeps if s.sweeps else 0.0, "ratio")
    out["cli.csv_bytes"] = (csv_bytes_per_op, "B")
    out["trace_overhead"] = (overhead, "ratio")
    return out
