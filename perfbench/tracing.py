"""Per-layer spans for compasscoh, recorded from outside the package.

``install`` replaces the public entry points of each layer with wrappers,
at the module attribute where the caller looks the name up (for example
``compasscoh.experiments.get_backend``, not only ``compasscoh.exact``).
Every call through a wrapper records a span ``[name, start, end, parent,
attrs]`` in memory; ``attrs`` holds the counts read at that boundary
(supports enumerated, syndromes tabulated, samples drawn, ...).  Nothing
under ``src/compasscoh`` is changed.

A hook target that no longer exists is skipped with a note, and every
metric that needs its span is left out, so the benchmark keeps running
when a refactor moves or deletes a layer.

``layer_metrics`` turns one run's spans into the per-layer metrics.  Self
times come from how the spans nest: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> every "module:attribute" where a caller looks the callable up
TARGETS = {
    "cli.main": ["cli:main"],
    "codes.build_code": ["cli:build_code", "experiments:build_code"],
    "codes.coloring": ["cli:random_coloring", "experiments:random_coloring",
                       "cli:family_rotated_surface", "cli:family_z_stacked",
                       "cli:family_x_shor", "cli:family_z_shor"],
    "codes.file": ["cli:load_coloring", "cli:save_coloring"],
    "codes.validate": ["cli:validate"],
    "kernels.count_table": ["_kernels:count_table"],
    "decoder.build_matching_graph": ["exact:build_matching_graph",
                                     "cli:build_matching_graph"],
    "exact.get_backend": ["cli:get_backend", "experiments:get_backend",
                          "exact:get_backend"],
    "exact.backend_build": ["exact:ExactBackend.__init__"],
    "exact.distribution": ["exact:ExactBackend.distribution"],
    "exact.channel": ["exact:ExactBackend.channel"],
    "families.repetition": ["families:repetition_exact",
                            "families:repetition_distribution"],
    "families.product_distribution": ["families:product_distribution"],
    "families.compose": ["families:z_shor_channel", "families:x_shor_channel",
                         "families:z_stacked_channel",
                         "families:z_shor_distribution",
                         "families:x_shor_distribution",
                         "families:z_stacked_distribution"],
    "experiments.sweep": ["cli:sweep"],
    "experiments.interpolation_curve": ["cli:interpolation_curve"],
    "experiments.find_crossings": ["cli:find_crossings"],
    "experiments.bisect": ["experiments:_bisect_crossing"],
    "experiments.sample_distribution": ["experiments:sample_distribution"],
    "experiments.io": ["cli:read_csv", "cli:write_csv", "cli:table_to_json",
                       "cli:source_for_rows"],
}


# Observers read counts at a boundary.  Each takes the call's (args,
# kwargs) and returns (args, kwargs, finish); finish(result) -> attrs.

def _count_table(args, kwargs):
    n, masks = args[0], args[1]
    r = len(masks)
    return args, kwargs, lambda _: {
        "n": n, "r": r, "supports": 1 << n,
        "table_mb": (1 << r) * 2 * (n + 1) * 8 / 1e6}


def _backend_build(args, kwargs):
    code = args[1]
    n, r = code.n, len(code.x_stabilizers)
    return args, kwargs, lambda _: {"n": n, "r": r, "syndromes": 1 << r}


def _build_code(args, kwargs):
    return args, kwargs, lambda code: {"n": code.n, "r": len(code.x_stabilizers)}


def _product(args, kwargs):
    return args, kwargs, lambda dist: {"classes": len(dist.p)}


def _sample(args, kwargs):
    n_samples = args[1] if len(args) > 1 else kwargs["n_samples"]
    return args, kwargs, lambda _: {"samples": n_samples}


def _bisect(args, kwargs):
    diff = args[0]
    calls = [0]

    def counted(t):
        calls[0] += 1
        return diff(t)
    return (counted,) + tuple(args[1:]), kwargs, lambda _: {"evals": calls[0]}


OBSERVERS = {
    "kernels.count_table": _count_table,
    "exact.backend_build": _backend_build,
    "codes.build_code": _build_code,
    "families.product_distribution": _product,
    "experiments.sample_distribution": _sample,
    "experiments.bisect": _bisect,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: list[str] = []
        self.broken: set[str] = set()  # spans whose counts could not be read
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def observer_failed(self, name: str, exc: Exception) -> None:
        if name not in self.broken:
            self.broken.add(name)
            self.notes.append(f"counts of {name} unreadable: {exc!r}")


_OBSERVER_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def _wrap(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        finish = None
        if observe is not None:
            try:
                args, kwargs, finish = observe(args, kwargs)
            except _OBSERVER_ERRORS as exc:
                tracer.observer_failed(name, exc)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if finish is not None:
            try:
                tracer.spans[idx][4] = finish(result)
            except _OBSERVER_ERRORS as exc:
                tracer.observer_failed(name, exc)
        return result
    return wrapper


def install(tracer: Tracer, targets=None, package: str = "compasscoh") -> list[str]:
    """Wrap every reachable target; return the span names that got no hook.

    A target that cannot be imported or looked up adds a note to
    ``tracer.notes``; a span name is missing only when all its targets are.
    """
    targets = TARGETS if targets is None else targets
    missing = []
    for name, lookups in targets.items():
        hooked = False
        for lookup in lookups:
            module_name, _, path = lookup.partition(":")
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                tracer.notes.append(f"hook target {package}.{module_name}.{path} "
                                    f"missing ({exc.__class__.__name__}); "
                                    f"metrics from span {name} may be absent")
                continue
            setattr(owner, attr, _wrap(tracer, name, fn, OBSERVERS.get(name)))
            hooked = True
        if not hooked:
            missing.append(name)
    return missing


# ---------------------------------------------------------------------------
# Analysis

class SpanView:
    """Queries over one run's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        self.child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.child[s[3]] += self.dur[i]

    def _outermost(self, names):
        for i, s in enumerate(self.spans):
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                yield i

    def time(self, *names) -> float:
        """Wall time inside any of ``names``, nested calls counted once."""
        return sum(self.dur[i] for i in self._outermost(set(names)))

    def count(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, name, key):
        return sum((s[4] or {}).get(key, 0) for s in self.spans if s[0] == name)

    def self_time(self, match) -> float:
        return sum(self.dur[i] - self.child[i]
                   for i, s in enumerate(self.spans) if match(s[0]))

    def cache_hits(self) -> int:
        built = {s[3] for s in self.spans if s[0] == "exact.backend_build"}
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == "exact.get_backend" and i not in built)

    def top_level_time(self) -> float:
        return sum(d for s, d in zip(self.spans, self.dur) if s[3] < 0)


def _ratio(a, b):
    return a / b if b else 0.0


# name: (unit, spans it needs, value from a SpanView)
LAYER_METRICS = {
    "kernels.count_table_s": ("s", ("kernels.count_table",),
                              lambda v: v.time("kernels.count_table")),
    "kernels.supports": ("count", ("kernels.count_table",),
                         lambda v: v.total("kernels.count_table", "supports")),
    "kernels.table_mb": ("MB", ("kernels.count_table",),
                         lambda v: v.total("kernels.count_table", "table_mb")),
    # the backend build's own time is the 2^r decode-table loop
    "decoder.table_s": ("s", ("exact.backend_build", "kernels.count_table",
                              "decoder.build_matching_graph"),
                        lambda v: v.self_time(lambda n: n == "exact.backend_build")),
    "decoder.syndromes": ("count", ("exact.backend_build",),
                          lambda v: v.total("exact.backend_build", "syndromes")),
    "decoder.graph_s": ("s", ("decoder.build_matching_graph",),
                        lambda v: v.time("decoder.build_matching_graph")),
    "exact.backend_s": ("s", ("exact.backend_build",),
                        lambda v: v.time("exact.backend_build")),
    "exact.backend_builds": ("count", ("exact.backend_build",),
                             lambda v: v.count("exact.backend_build")),
    "exact.cache_hits": ("count", ("exact.get_backend", "exact.backend_build"),
                         lambda v: v.cache_hits()),
    "exact.cache_hit_ratio": ("ratio", ("exact.get_backend", "exact.backend_build"),
                              lambda v: _ratio(v.cache_hits(),
                                               v.count("exact.get_backend"))),
    "exact.theta_eval_s": ("s", ("exact.distribution", "exact.channel"),
                           lambda v: v.time("exact.distribution", "exact.channel")),
    "exact.theta_evals": ("count", ("exact.distribution",),
                          lambda v: v.count("exact.distribution")),
    "families.product_s": ("s", ("families.product_distribution",),
                           lambda v: v.time("families.product_distribution")),
    "families.product_calls": ("count", ("families.product_distribution",),
                               lambda v: v.count("families.product_distribution")),
    "families.product_classes": ("count", ("families.product_distribution",),
                                 lambda v: v.total("families.product_distribution",
                                                   "classes")),
    "families.rep_s": ("s", ("families.repetition",),
                       lambda v: v.time("families.repetition")),
    "families.rep_calls": ("count", ("families.repetition",),
                           lambda v: v.count("families.repetition")),
    "experiments.crossing_s": ("s", ("experiments.find_crossings",),
                               lambda v: v.time("experiments.find_crossings")),
    "experiments.bisect_evals": ("count", ("experiments.bisect",),
                                 lambda v: v.total("experiments.bisect", "evals")),
    "experiments.sample_s": ("s", ("experiments.sample_distribution",),
                             lambda v: v.time("experiments.sample_distribution")),
    "experiments.samples": ("count", ("experiments.sample_distribution",),
                            lambda v: v.total("experiments.sample_distribution",
                                              "samples")),
    "experiments.self_s": ("s", (),
                           lambda v: v.self_time(lambda n: n.startswith("experiments."))),
    "codes.build_s": ("s", ("codes.build_code",),
                      lambda v: v.time("codes.build_code")),
    "codes.builds": ("count", ("codes.build_code",),
                     lambda v: v.count("codes.build_code")),
    "cli.self_s": ("s", ("cli.main",),
                   lambda v: v.self_time(lambda n: n == "cli.main")),
}


def layer_metrics(spans, unavailable=()) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one run; those needing an unavailable span are left out."""
    view = SpanView(spans)
    out = {}
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        if not set(needs) & set(unavailable):
            out[name] = (fn(view), unit)
    return out


def code_shapes(spans) -> dict[str, dict[str, int]]:
    """(n, r) of every code built, table enumerated and backend built, with counts."""
    out: dict[str, dict[str, int]] = {}
    for name in ("codes.build_code", "kernels.count_table", "exact.backend_build"):
        shapes: dict[str, int] = {}
        for s in spans:
            if s[0] == name and s[4] and "n" in s[4]:
                key = f"n={s[4]['n']},r={s[4]['r']}"
                shapes[key] = shapes.get(key, 0) + 1
        if shapes:
            out[name] = dict(sorted(shapes.items()))
    return out
