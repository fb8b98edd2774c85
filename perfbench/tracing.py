"""Layer spans recorded from outside the package.

`install` wraps each layer's public function at every module binding that
holds it, so a caller that did `from .schur import schur_eval` is traced as
well as `schur.schur_eval` itself.  Methods are wrapped on their class.
Spans stay in memory while a pass runs and are reduced to per-layer totals
when it ends.  A layer whose home function no longer exists is reported as
missing instead of failing the run, and so is a counter whose hook failed.
"""

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (layer, home module, attribute path, hook name or None).  Several home
# functions may feed one layer.
LAYERS = (
    ("repmodel.parse_rep", "sl2hilb.repmodel", "parse_rep", None),
    ("repmodel.weight_system", "sl2hilb.repmodel", "weight_system", None),
    ("repmodel.classify_case", "sl2hilb.repmodel", "classify_case", None),
    ("exactalg.rf_add", "sl2hilb.exactalg", "RationalFunction.__add__", "rf_add"),
    ("exactalg.derivative", "sl2hilb.exactalg", "RationalFunction.derivative", None),
    ("exactalg.reduce", "sl2hilb.exactalg", "RationalFunction.reduce", "reduce"),
    ("exactalg.taylor_coeffs", "sl2hilb.exactalg", "taylor_coeffs", None),
    ("exactalg.laurent_at_one", "sl2hilb.exactalg", "laurent_at_one", None),
    ("schur.schur_eval", "sl2hilb.schur", "schur_eval", None),
    ("oracle.truncated_series", "sl2hilb.oracle", "truncated_series", "oracle"),
    ("series.hilbert_series", "sl2hilb.series", "hilbert_series", "hilbert_series"),
    ("series.ua_transform", "sl2hilb.series", "ua_transform", "ua_transform"),
    ("series.dn_apply", "sl2hilb.series", "dn_apply", None),
    ("laurent.gammas", "sl2hilb.laurent", "gammas", None),
    ("laurent.closed_form", "sl2hilb.laurent", "gamma0", None),
    ("laurent.closed_form", "sl2hilb.laurent", "gamma1", None),
    ("laurent.closed_form", "sl2hilb.laurent", "gamma2", None),
    ("laurent.closed_form", "sl2hilb.laurent", "gamma3", None),
    ("laurent.closed_form", "sl2hilb.laurent", "first_coeff_sum", None),
    ("cli.main", "sl2hilb.cli", "main", None),
    ("cli.compute", "sl2hilb.cli", "HilbertResult.compute", None),
    ("cli.load_cached", "sl2hilb.cli", "load_cached", "load_cached"),
    ("cli.store_cached", "sl2hilb.cli", "store_cached", None),
)

# Functions that only feed a counter; their time stays with the caller.
COUNTER_HOOKS = (
    ("schur.bareiss_det", "sl2hilb.schur", "bareiss_det", "det_rows"),
)

SPAN_LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in LAYERS))
HOOK_LAYER = {hook: layer for layer, _, _, hook in LAYERS + COUNTER_HOOKS if hook}

# Call sites the traced run must reach: callers that bound these names at
# import time would bypass a wrapper placed on the home module alone.
REQUIRED_SITES = (
    "sl2hilb.hilbert_series", "sl2hilb.gammas", "sl2hilb.gamma0",
    "sl2hilb.laurent.schur_eval", "sl2hilb.laurent.hilbert_series",
    "sl2hilb.laurent.laurent_at_one", "sl2hilb.laurent.weight_system",
    "sl2hilb.laurent.classify_case", "sl2hilb.series.ua_transform",
    "sl2hilb.series.dn_apply", "sl2hilb.series.taylor_coeffs",
    "sl2hilb.cli.hilbert_series", "sl2hilb.cli.gammas",
    "sl2hilb.cli.taylor_coeffs", "sl2hilb.cli.parse_rep",
    "sl2hilb.cli.load_cached", "sl2hilb.cli.store_cached",
    "sl2hilb.schur.bareiss_det", "sl2hilb.oracle.truncated_series",
)


def _bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


class Tracer:
    """Spans and counters of one pass; inactive outside the timed operations."""

    def __init__(self):
        self.active = False
        self.spans = []            # (id, parent id, layer, start, end, outermost)
        self.stack = []
        self.depth = defaultdict(int)
        self.next_id = 0
        self.sums = defaultdict(int)
        self.maxes = {}
        self.mins = {}
        self.oracle_depth = None
        self.sites = []
        self.missing = []
        self.missing_layers = set()
        self.hook_errors = defaultdict(int)

    # -- counters -------------------------------------------------------

    def _max(self, name, value):
        if value > self.maxes.get(name, value - 1):
            self.maxes[name] = value

    def _min(self, name, value):
        if value < self.mins.get(name, value + 1):
            self.mins[name] = value

    def _hook(self, hook, args, result):
        try:
            getattr(self, "_on_" + hook)(args, result)
        except Exception:  # a changed signature must not stop the run
            self.hook_errors[hook] += 1

    def _on_rf_add(self, args, result):
        self._max("exactalg.rf_add.max_den_degree", result.den.degree)

    def _on_reduce(self, args, result):
        self.sums["exactalg.reduce.cancelled_degree"] += (
            args[0].den.degree - result.den.degree)
        if result.num.c:
            self._max("exactalg.num_max_bits", max(_bits(c) for c in result.num.c))

    def _on_oracle(self, args, result):
        self.oracle_depth = args[1]

    def _on_hilbert_series(self, args, result):
        if self.oracle_depth is not None:
            self._min("oracle.coverage_min",
                      (self.oracle_depth + 1) / (result.num.degree + 1))
            self.oracle_depth = None

    def _on_ua_transform(self, args, result):
        coeffs = list(args[0].num.values())
        self.sums["series.ua_transform.input_coeffs"] += len(coeffs)
        self.sums["series.ua_transform.fraction_coeffs"] += sum(
            1 for c in coeffs if isinstance(c, Fraction))
        self.sums["series.ua_transform.out_terms"] += len(result.num.c)

    def _on_load_cached(self, args, result):
        self.sums["cli.load_cached.hits"] += result is not None

    def _on_det_rows(self, args, result):
        self._max("schur.schur_eval.det_rows_max", len(args[0]))

    # -- wrappers -------------------------------------------------------

    def span_wrapper(self, layer, fn, hook):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = tr.stack[-1] if tr.stack else -1
            tr.stack.append(sid)
            depth = tr.depth[layer]
            tr.depth[layer] = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                tr.depth[layer] = depth
                tr.spans.append((sid, parent, layer, t0, t1, depth == 0))
            if hook is not None:
                tr._hook(hook, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter_wrapper(self, fn, hook):
        tr = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tr.active:
                tr._hook(hook, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction ------------------------------------------------------

    def layer_totals(self):
        """calls, self time and outermost inclusive time per layer."""
        covered = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            covered[parent] += t1 - t0
        out = {layer: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
               for layer in SPAN_LAYERS}
        for sid, _, layer, t0, t1, outermost in self.spans:
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - covered[sid]
            if outermost:
                row["incl_s"] += t1 - t0
        return out

    def report(self):
        return {
            "layers": self.layer_totals(),
            "sums": dict(self.sums),
            "maxes": self.maxes,
            "mins": self.mins,
            "spans": len(self.spans),
            "sites": self.sites,
            "missing": self.missing,
            "hook_errors": dict(self.hook_errors),
            # layers whose spans are absent, and those whose counters are too
            "missing_layers": sorted(self.missing_layers),
            "uncounted_layers": sorted(self.missing_layers | {
                HOOK_LAYER[hook] for hook in self.hook_errors}),
        }


def _resolve(module_name, path):
    """(owner, attribute, raw value) for a dotted path, or None."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(parts[-1])
    else:
        raw = getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


def _package_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "sl2hilb" or name.startswith("sl2hilb."))]


def install(tracer):
    """Wrap every layer at each binding; record missing layers and sites."""
    modules = _package_modules()
    targets = [(layer, mod, path, hook, True) for layer, mod, path, hook in LAYERS]
    targets += [(name, mod, path, hook, False) for name, mod, path, hook in COUNTER_HOOKS]
    for layer, module_name, path, hook, is_span in targets:
        found = _resolve(module_name, path)
        if found is None:
            tracer.missing.append("%s (%s.%s)" % (layer, module_name, path))
            tracer.missing_layers.add(layer)
            continue
        owner, attr, raw = found
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.span_wrapper(layer, raw.__func__, hook))
            else:
                wrapped = tracer.span_wrapper(layer, raw, hook)
            setattr(owner, attr, wrapped)
            tracer.sites.append("%s.%s" % (module_name, path))
            continue
        wrapped = (tracer.span_wrapper(layer, raw, hook) if is_span
                   else tracer.counter_wrapper(raw, hook))
        for name, mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
                    tracer.sites.append("%s.%s" % (name, key))
