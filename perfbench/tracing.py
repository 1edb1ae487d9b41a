"""Spans around calls into the package's modules, and the per-layer split.

The tracer replaces public functions of each layer module by wrappers for
the length of a traced repetition (and puts the originals back afterwards),
rebinding every name in the package that refers to the same function, so
calls made through ``from .x import f`` are seen too.  A span records
name, layer, start, end, parent span and the benchmark call it belongs to.
Spans stay in memory and are written when the run ends.

The engine split uses only state the engine exposes: ``LevelCache.ensure``
(level building), ``LevelCache.rows`` / ``parts_for`` / ``top`` / ``levels``
and the arguments and results of ``weighted_sums`` and ``max_norm_word``.
A wrap target that no longer exists is skipped, and every metric that
depends on it is reported as absent (value null) instead of failing.
"""

import functools
import inspect
import json
import sys
import time

LAYER_MODULES = {
    "cli": "matpress.cli",
    "measure": "matpress.measure",
    "engine": "matpress._engine",
    "linalg": "matpress.linalg",
    "pressure": "matpress.pressure",
    "svpressure": "matpress.svpressure",
    "affinity": "matpress.affinity",
    "jsr": "matpress.jsr",
}

# The engine's other public helpers (nominal_words, feasible, check_budget,
# RunClock) are O(1) arithmetic called in tight bracket loops; spans around
# them would cost more than the work they measure.
ENGINE_TARGETS = ("weighted_sums", "max_norm_word", "LevelCache.ensure")

# name, unit, direction; the order is the order of the report
PER_LAYER = [
    ("cli.parse_s", "s", "lower"),
    ("engine.levels_s", "s", "lower"),
    ("engine.levels_rows", "count", "lower"),
    ("engine.levels_keep_frac", "ratio", "lower"),
    ("engine.levels_flops", "flop", "lower"),
    ("engine.levels_bytes", "MB", "lower"),
    ("engine.eval_s", "s", "lower"),
    ("engine.eval_rows", "count", "lower"),
    ("engine.eval_rows_per_s", "1/s", "higher"),
    ("engine.rows_per_word", "ratio", "lower"),
    ("engine.sums_calls", "count", "lower"),
    ("engine.sums_s", "s", "lower"),
    ("engine.sums_repeat_frac", "ratio", "lower"),
    ("engine.max_calls", "count", "lower"),
    ("engine.max_s", "s", "lower"),
    ("engine.pool_speedup", "ratio", "higher"),
    ("affinity.s", "s", "lower"),
    ("affinity.self_s", "s", "lower"),
    ("affinity.exponent_evals", "count", "lower"),
    ("affinity.fire_frac", "ratio", "higher"),
    ("jsr.s", "s", "lower"),
    ("jsr.self_s", "s", "lower"),
    ("pressure.s", "s", "lower"),
    ("pressure.self_s", "s", "lower"),
    ("pressure.depth", "count", "lower"),
    ("svpressure.s", "s", "lower"),
    ("svpressure.self_s", "s", "lower"),
    ("linalg.calls", "count", "lower"),
    ("linalg.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Span recorder for one traced repetition at a time."""

    def __init__(self):
        self.spans = []  # [id, parent, call, layer, name, start, end]
        self.info = {}  # span id -> counters taken at that boundary
        self.stack = []
        self.call = None
        self.active = False
        self.present = set()  # "layer.target" wrapped successfully
        self._levels_seen = set()  # (id(cache), m) already counted
        self._patches = []

    # ---- installation --------------------------------------------------

    def install(self):
        for layer, modname in LAYER_MODULES.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if layer == "engine":
                for target in ENGINE_TARGETS:
                    self._wrap_target(layer, mod, target)
            else:
                for name in getattr(mod, "__all__", ()):
                    if inspect.isfunction(getattr(mod, name, None)):
                        self._wrap_target(layer, mod, name)

    def _wrap_target(self, layer, mod, target):
        owner = mod
        *path, attr = target.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        original = getattr(owner, attr, None)
        if not callable(original):
            return
        hook = getattr(self, f"_after_{attr}", None)
        wrapper = self._wrapper(layer, f"{layer}.{target}", original, hook)
        if path:  # a method: patch the class only
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("matpress"):
                    continue
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, name, original))
                        setattr(other, name, wrapper)
        self.present.add(f"{layer}.{target}")

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _wrapper(self, layer, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [sid, parent, tracer.call, layer, name, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                tracer.active = False
                try:
                    hook(sid, fn, args, kwargs, result)
                finally:
                    tracer.active = True
            return result

        return wrapper

    # ---- counters taken at the boundaries --------------------------------

    def _after_ensure(self, sid, fn, args, kwargs, result):
        cache = args[0]
        parent = self.spans[sid][1]
        if parent is not None:
            self.info.setdefault(parent, {})["cache"] = cache
        # levels added by this call: kept rows against candidate products
        rows = {m: cache.rows(m) for m in cache.levels}
        d = cache.d
        info = self.info.setdefault(sid, {"kept": 0, "candidates": 0, "flops": 0, "bytes": 0})
        for m in range(2, cache.top + 1):
            if (id(cache), m) in self._levels_seen:
                continue
            self._levels_seen.add((id(cache), m))
            cand = rows[m - 1] * rows[1]
            info["kept"] += rows[m]
            info["candidates"] += cand
            info["flops"] += cand * (2 * d ** 3 - d ** 2)
            info["bytes"] += rows[m] * (d * d * 8 + 16)

    def _eval_counts(self, sid, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        mu, n = bound.arguments[next(iter(bound.arguments))], bound.arguments["n"]
        info = self.info.setdefault(sid, {})
        cache = info.pop("cache", None)
        rows = 0
        if cache is not None:
            rows = 1
            for part in cache.parts_for(n):
                rows *= cache.rows(part)
        info["rows"] = rows
        info["words"] = mu.n_atoms ** n
        return bound, mu, n, info

    def _after_weighted_sums(self, sid, fn, args, kwargs, result):
        bound, mu, n, info = self._eval_counts(sid, fn, args, kwargs)
        info["key"] = (id(mu), n, bound.arguments.get("kind"))
        info["exponents"] = len(bound.arguments.get("s_values", ()))

    def _after_max_norm_word(self, sid, fn, args, kwargs, result):
        self._eval_counts(sid, fn, args, kwargs)

    def _after_affinity_dimension(self, sid, fn, args, kwargs, result):
        self.info.setdefault(sid, {})["steps"] = result.steps

    def _after_bracket(self, sid, fn, args, kwargs, result):
        if self.spans[sid][4] == "pressure.bracket":
            self.info.setdefault(sid, {})["n_used"] = result.n_used

    # ---- output -----------------------------------------------------------

    def reset(self):
        self.spans, self.info, self.stack = [], {}, []
        self._levels_seen = set()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, call, layer, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "call": call, "layer": layer,
                    "name": name, "start": start, "end": end,
                }) + "\n")

    def layer_split(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        dur = [s[6] - s[5] for s in spans]
        child = [0.0] * len(spans)
        for s, t in zip(spans, dur):
            if s[1] is not None:
                child[s[1]] += t

        def outermost(sid):
            layer = spans[sid][3]
            p = spans[sid][1]
            while p is not None:
                if spans[p][3] == layer:
                    return False
                p = spans[p][1]
            return True

        total = {}
        self_s = {}
        calls = {}
        for s, t in zip(spans, dur):
            layer = s[3]
            self_s[layer] = self_s.get(layer, 0.0) + t - child[s[0]]
            calls[layer] = calls.get(layer, 0) + 1
            if outermost(s[0]):
                total[layer] = total.get(layer, 0.0) + t

        def in_affinity(sid):
            p = spans[sid][1]
            while p is not None:
                if spans[p][3] == "affinity":
                    return True
                p = spans[p][1]
            return False

        def named(name):
            return [(s, t, self.info.get(s[0], {})) for s, t in zip(spans, dur) if s[4] == name]

        sums = named("engine.weighted_sums")
        maxes = named("engine.max_norm_word")
        levels = named("engine.LevelCache.ensure")
        levels_s = sum(t for _, t, _ in levels)
        sums_s = sum(t for _, t, _ in sums)
        max_s = sum(t for _, t, _ in maxes)
        eval_s = sums_s + max_s - levels_s
        eval_rows = sum(i.get("rows", 0) for _, _, i in sums + maxes)
        words = sum(i.get("words", 0) for _, _, i in sums + maxes)
        seen, repeats = set(), 0
        for _, _, i in sums:
            key = i.get("key")
            if key in seen:
                repeats += 1
            seen.add(key)
        kept = sum(i.get("kept", 0) for _, _, i in levels)
        cand = sum(i.get("candidates", 0) for _, _, i in levels)
        exponent_evals = sum(i.get("exponents", 0) for s, _, i in sums if in_affinity(s[0]))
        steps = sum(i.get("steps", 0) for _, _, i in named("affinity.affinity_dimension"))

        out = {
            "cli.parse_s": total.get("cli", 0.0),
            "engine.levels_s": levels_s,
            "engine.levels_rows": kept,
            "engine.levels_keep_frac": _ratio(kept, cand),
            "engine.levels_flops": sum(i.get("flops", 0) for _, _, i in levels),
            "engine.levels_bytes": sum(i.get("bytes", 0) for _, _, i in levels) / 1e6,
            "engine.eval_s": eval_s,
            "engine.eval_rows": eval_rows,
            "engine.eval_rows_per_s": _ratio(eval_rows, eval_s),
            "engine.rows_per_word": _ratio(eval_rows, words),
            "engine.sums_calls": len(sums),
            "engine.sums_s": sums_s,
            "engine.sums_repeat_frac": _ratio(repeats, len(sums)),
            "engine.max_calls": len(maxes),
            "engine.max_s": max_s,
            "affinity.s": total.get("affinity", 0.0),
            "affinity.self_s": self_s.get("affinity", 0.0),
            "affinity.exponent_evals": exponent_evals,
            "affinity.fire_frac": _ratio(steps, exponent_evals),
            "jsr.s": total.get("jsr", 0.0),
            "jsr.self_s": self_s.get("jsr", 0.0),
            "pressure.s": total.get("pressure", 0.0),
            "pressure.self_s": self_s.get("pressure", 0.0),
            "pressure.depth": sum(i.get("n_used", 0) for _, _, i in named("pressure.bracket")),
            "svpressure.s": total.get("svpressure", 0.0),
            "svpressure.self_s": self_s.get("svpressure", 0.0),
            "linalg.calls": calls.get("linalg", 0),
            "linalg.s": total.get("linalg", 0.0),
        }
        for name in self.absent_metrics():
            out[name] = None
        return out

    def absent_metrics(self):
        """Metrics whose wrap target is missing from the package."""
        needs = {
            "engine.weighted_sums": ["engine.sums_calls", "engine.sums_s",
                                     "engine.sums_repeat_frac", "affinity.exponent_evals",
                                     "affinity.fire_frac"],
            "engine.max_norm_word": ["engine.max_calls", "engine.max_s"],
            "engine.LevelCache.ensure": ["engine.levels_s", "engine.levels_rows",
                                         "engine.levels_keep_frac", "engine.levels_flops",
                                         "engine.levels_bytes", "engine.eval_s",
                                         "engine.eval_rows", "engine.eval_rows_per_s",
                                         "engine.rows_per_word"],
            "cli.parse_input": ["cli.parse_s"],
            "affinity.affinity_dimension": ["affinity.s", "affinity.self_s",
                                            "affinity.fire_frac"],
            "pressure.bracket": ["pressure.s", "pressure.self_s", "pressure.depth"],
            "svpressure.bracket": ["svpressure.s", "svpressure.self_s"],
            "jsr.jsr_bracket": ["jsr.s", "jsr.self_s"],
        }
        out = []
        for target, metrics in needs.items():
            if target not in self.present:
                out.extend(metrics)
        if not any(t.startswith("linalg.") for t in self.present):
            out.extend(["linalg.calls", "linalg.s"])
        return out


def median_split(splits):
    """Per-metric median over repetitions; absent stays absent."""
    out = {}
    for name in splits[0]:
        vals = sorted(v[name] for v in splits if v[name] is not None)
        if not vals:
            out[name] = None
            continue
        mid = len(vals) // 2
        out[name] = vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])
    return out

