"""Span tracing of kmw's layers, applied from outside the library.

A traced pass wraps the public callables of each kmw module at its layer
boundary; nothing under ``src/kmw`` changes.  Every wrapped call is a
span.  A layer's self time is the duration of its spans minus the part
of that interval their child spans cover, so self times over all layers
plus the time no layer claims add up to the traced wall time.

Spans are folded into per-layer totals as they close, so memory stays
flat however many calls a pass makes.  Wrapping rebinds every attribute
of every loaded ``kmw`` module that holds the wrapped object (for
example ``derived_groups`` is bound in ``scissors``, ``reports``,
``suites``, ``cli`` and the package root); a binding left behind would
let calls bypass their span.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import Counter

#: Root span the harness opens around each item; its self time is the
#: time spent inside the item but outside every kmw layer.
ITEM = "bench.item"

#: Every module the tracer wraps or reads; all are imported before wrapping.
KMW_MODULES = (
    "kmw",
    "kmw._snf_py",
    "kmw.exact_linear",
    "kmw.fields",
    "kmw.group_ring",
    "kmw.scissors",
    "kmw.witt",
    "kmw.milnor_witt",
    "kmw.reports",
    "kmw.suites",
    "kmw.cli",
)

#: (layer, defining module, callables).  ``Class.method`` names a method.
#: The normal-form kernels are wrapped separately (see KERNELS) because
#: their spans also feed the kernel census.
LAYERS = (
    ("exact_linear.intmatrix", "kmw.exact_linear", ("IntMatrix.__init__",)),
    ("exact_linear.presentation", "kmw.exact_linear", (
        "snf", "hnf", "det", "left_kernel", "solve_left",
        "lattice_intersection", "fp_group", "fp_kernel", "fp_image",
        "fp_cokernel", "odd_part", "AbGroupInfo.__init__",
        "AbGroupInfo.coordinate_map", "AbGroupInfo.is_zero",
        "AbGroupInfo.element_order", "AbMap.__init__", "AbMap.apply",
    )),
    ("scissors.five_term", "kmw.scissors", (
        "refined_five_term", "plain_five_term", "five_term_admissible",
    )),
    ("scissors", "kmw.scissors", (
        "scissors_context", "pb_group", "pb_half", "rp_presentation",
        "lambda_maps", "derived_groups", "r_element", "sv_apply",
        "delta_t_rp", "rp_tilde_gen", "sym2", "rp_gen",
        "ScissorsContext.p_group", "ScissorsContext.rp_rows",
        "ScissorsContext.rp_group", "ScissorsContext.maps",
        "ScissorsContext.k1_rows", "ScissorsContext.rp_tilde",
        "ScissorsContext.derived",
    )),
    ("group_ring", "kmw.group_ring", (
        "gr_zero", "gr_int", "gr_unit", "gr_class", "gr_add", "gr_mul",
        "augmentation", "pfister_elem", "GroupRingElem.__init__",
        "GroupRingElem.__add__", "GroupRingElem.__sub__",
        "GroupRingElem.__neg__", "GroupRingElem.__mul__",
        "GroupRingElem.augmentation", "GroupRingElem.to_pair",
    )),
    ("fields.symbol", "kmw.fields", ("tame_symbol", "hilbert")),
    ("fields.square_class", "kmw.fields", (
        "square_class", "is_square", "class_place_parity",
    )),
    ("fields.place", "kmw.fields", (
        "support_places", "valuation", "function_place", "rational_place",
    )),
    ("fields.factor", "kmw.fields", (
        "factor_poly", "squarefree_decomposition", "factor_int",
    )),
    ("fields.irreducible", "kmw.fields", ("poly_is_irreducible",)),
    ("witt", "kmw.witt", (
        "diagonal_form", "unit_form", "zero_form", "hyperbolic_form",
        "pfister_form", "signature", "witt_invariants", "witt_is_zero",
        "witt_equal", "in_i_power", "second_residue", "first_residue",
        "witt_group_structure", "witt_descriptor", "i_square_is_zero",
    )),
    ("milnor_witt.build", "kmw.milnor_witt", (
        "mw_symbol", "h_elem", "mw_mul", "eta_mul", "mw_add", "gw_scale",
        "mw_neg", "mw_scale",
    )),
    ("milnor_witt.compare", "kmw.milnor_witt", ("mw_equal", "mw_is_zero")),
    ("milnor_witt.delta", "kmw.milnor_witt", ("mw_delta",)),
    ("milnor_witt.descriptor", "kmw.milnor_witt", (
        "mw_descriptor", "k1_finite_order", "k2_finite_vanishing",
    )),
    ("reports.verify", "kmw.reports", ("verify_descriptor",)),
    ("reports", "kmw.reports", (
        "h2_laurent_report", "h3_laurent_report", "stabilization_report",
    )),
    ("suites", "kmw.suites", (
        "run_mw_relations", "run_residues", "run_sv", "run_witt",
        "run_hilbert",
    )),
    ("cli", "kmw.cli", ("main",)),
)

#: Kernel layers: (layer, kernel function, positional index of each flag).
KERNELS = (
    ("exact_linear.snf", "snf_kernel", {"want_u": 3, "want_v": 4}),
    ("exact_linear.hnf", "hnf_kernel", {"want_u": 3}),
)

#: Kernel backends: (name, module).  The compiled one is optional.
BACKENDS = (("python", "kmw._snf_py"), ("compiled", "kmw._snf_core"))

#: Work counters the wrappers add to, besides calls and self time.
COUNTERS = (
    "exact_linear.snf.entries",
    "exact_linear.hnf.entries",
    "exact_linear.transform_entries",
    "exact_linear.fallbacks",
    "exact_linear.intmatrix.entries",
)

#: Layers whose hit ratio is read from lru caches: (metric, caches).
HIT_RATIOS = (
    ("fields.symbol.hit_ratio", ("kmw.fields.tame_symbol", "kmw.fields.hilbert")),
    ("fields.factor.hit_ratio", ("kmw.fields._factor_poly_cached",)),
)


def layer_names() -> list[str]:
    """Every layer, kernels first, in report order."""
    return [layer for layer, _, _ in KERNELS] + [layer for layer, _, _ in LAYERS]


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric a traced pass reports."""
    units = {}
    for layer in layer_names():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    for name, _ in HIT_RATIOS:
        units[name] = "ratio"
    units["fields.memo_entries"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Span stack plus per-layer totals.  Only spans opened while
    ``active`` is set are recorded; the harness sets it around items so
    its own checks never land in a layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.layers: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.census: dict[str, list] = {}  # kernel key -> [calls, entries, seconds]
        self._stack: list[list] = []  # [layer, start, time covered by children]
        self._restore: list[tuple] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span and return its duration."""
        layer, start, covered = self._stack.pop()
        span = self.clock() - start
        totals = self.layers.get(layer)
        if totals is None:
            totals = self.layers[layer] = [0, 0.0]
        totals[0] += 1
        totals[1] += span - covered
        if self._stack:
            self._stack[-1][2] += span
        return span

    def begin_item(self) -> None:
        self.active = True
        self.enter(ITEM)

    def end_item(self) -> None:
        self.exit()
        self.active = False

    def wrap(self, layer: str, fn, note=None):
        """``fn`` with a span around each call; ``note(span, args,
        kwargs, exc)`` runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(layer)
            failed = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                span = tracer.exit()
                if note is not None:
                    note(span, args, kwargs, failed)

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and work counters per layer (zero when unused)."""
        out: dict[str, float] = {}
        for layer in layer_names():
            calls, self_s = self.layers.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out


def _kmw_modules() -> list:
    """Every loaded kmw module, after importing all of KMW_MODULES."""
    for name in KMW_MODULES:
        importlib.import_module(name)
    return [mod for name, mod in list(sys.modules.items())
            if (name == "kmw" or name.startswith("kmw.")) and mod is not None]


def _rebind(tracer: Tracer, original, wrapper, holders) -> None:
    """Point every attribute of ``holders`` bound to ``original`` at
    ``wrapper``, remembering each for ``uninstall``."""
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, attr, wrapper)
                tracer._restore.append((holder, attr, original))


def _flag(args, kwargs, name: str, index: int) -> bool:
    if name in kwargs:
        return bool(kwargs[name])
    return bool(args[index]) if len(args) > index else True


def _bucket(n: int) -> int:
    # smallest power of two >= n: shapes are censused as "up to" sizes
    return 1 << max(n - 1, 0).bit_length()


def _kernel_note(tracer: Tracer, layer: str, flags: dict, backend: str, overflow):
    kind = layer.rsplit(".", 1)[1]

    def note(span, args, kwargs, failed):
        rows, cols = args[1], args[2]
        want = {name: _flag(args, kwargs, name, index) for name, index in flags.items()}
        tag = "".join(f"{name[-1]}{int(value)}" for name, value in want.items())
        key = f"{kind} {tag} {_bucket(rows)}x{_bucket(cols)} {backend}"
        if failed is not None and overflow is not None and isinstance(failed, overflow):
            # the pure-Python call that follows redoes this reduction
            tracer.counts["exact_linear.fallbacks"] += 1
            key += " overflow"
        else:
            tracer.counts[f"{layer}.entries"] += rows * cols
            tracer.counts["exact_linear.transform_entries"] += (
                (rows * rows if want.get("want_u") else 0)
                + (cols * cols if want.get("want_v") else 0)
            )
        entry = tracer.census.setdefault(key, [0, 0, 0.0])
        entry[0] += 1
        entry[1] += rows * cols
        entry[2] += span

    return note


def _intmatrix_note(tracer: Tracer):
    def note(span, args, kwargs, failed):
        tracer.counts["exact_linear.intmatrix.entries"] += args[1] * args[2]

    return note


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer callable of kmw for ``tracer``.  Returns the
    callables that no longer exist: a change that removes one leaves its
    layer with fewer calls, which the report should show, not hide."""
    modules = _kmw_modules()
    missing = []
    for layer, fn_name, flags in KERNELS:
        for backend, mod_name in BACKENDS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:  # compiled backend not built
                continue
            original = getattr(mod, fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            note = _kernel_note(tracer, layer, flags, backend, getattr(mod, "Overflow", None))
            _rebind(tracer, original, tracer.wrap(layer, original, note), modules)
    for layer, mod_name, names in LAYERS:
        mod = sys.modules[mod_name]
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(f"{mod_name}.{name}")
                continue
            note = _intmatrix_note(tracer) if layer == "exact_linear.intmatrix" else None
            holders = [owner] if owner_name else modules
            _rebind(tracer, original, tracer.wrap(layer, original, note), holders)
    return missing


def uninstall(tracer: Tracer) -> None:
    """Undo ``install``: put every original binding back."""
    while tracer._restore:
        holder, attr, original = tracer._restore.pop()
        setattr(holder, attr, original)


def lru_caches() -> dict:
    """Every ``functools.lru_cache`` defined in a kmw module, by
    qualified name.  Call before ``install``: the wrappers hide the
    cache objects."""
    out = {}
    for mod in _kmw_modules():
        for name, obj in vars(mod).items():
            if (callable(getattr(obj, "cache_info", None))
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[f"{mod.__name__}.{name}"] = obj
    return out


def cache_report(caches: dict) -> dict:
    """hits, misses, size and hit ratio (with its base) of each cache."""
    out = {}
    for name, cache in sorted(caches.items()):
        info = cache.cache_info()
        base = info.hits + info.misses
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "base": base,
            "hit_ratio": info.hits / base if base else 0.0,
            "currsize": info.currsize,
            "maxsize": info.maxsize,
        }
    return out


def hit_ratios(report: dict) -> dict[str, float]:
    out = {}
    for metric, names in HIT_RATIOS:
        hits = sum(report[name]["hits"] for name in names if name in report)
        base = sum(report[name]["base"] for name in names if name in report)
        out[metric] = hits / base if base else 0.0
    return out


def finite_field_memos() -> dict[str, int]:
    """Entries held in the arithmetic memos of every live FiniteField."""
    from kmw.fields import FiniteField

    sizes: Counter = Counter()
    for obj in gc.get_objects():
        if isinstance(obj, FiniteField):
            for attr in ("_mul_memo", "_add_memo", "_inv_memo"):
                memo = getattr(obj, attr, None)
                if memo:
                    sizes[f"F{obj.order}"] += len(memo)
    return dict(sorted(sizes.items()))
