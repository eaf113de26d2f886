"""Span and counter recording at the boundaries of the `mwk` layers.

The recorder wraps public functions and methods of the package from the
outside, for the length of one traced pass, and restores them afterwards.
Spans give calls, total time (outermost calls of a name only, so recursion
is not counted twice) and self time (duration minus the time of the spans
it encloses).  The hot kernels get count-only wrappers, which stay cheap at
millions of calls.  Aggregates and the coarse span log stay in memory until
the pass ends.
"""

from __future__ import annotations

import sys
import time

# (metric name, owner path, attribute) of every boundary; the owner is a
# module or a class inside `mwk`.  A module function is rebound in every
# `mwk` module that imported it, so calls through any binding are seen.
SPANS = (
    ("operations.OpSequence.shift", "operations.OpSequence", "shift"),
    ("operations.OpSequence.admissible", "operations.OpSequence", "admissible"),
    ("operations.OpSequence.g_map", "operations.OpSequence", "g_map"),
    ("operations.OpSequence.apply", "operations.OpSequence", "apply"),
    ("operations.lambda_series", "operations", "lambda_series"),
    ("operations.sigma_operator_values", "operations", "sigma_operator_values"),
    ("operations.ModelOracle.is_zero", "operations.ModelOracle", "is_zero"),
    ("operations.ValuationOracle.is_zero", "operations.ValuationOracle", "is_zero"),
    ("model.minus_one_power", "model", "minus_one_power"),
    ("model.eval_model", "model", "eval_model"),
    ("model.snf_oracle", "model", "snf_oracle"),
    ("model.smith_normal_form", "model", "smith_normal_form"),
    ("model.group_structure_model", "model", "group_structure_model"),
    ("valuation.canonical_form", "valuation", "canonical_form"),
    ("valuation.residue_model", "valuation.ValuationContext", "residue_model"),
    ("valuation.specialize_model", "valuation.ValuationContext", "specialize_model"),
    ("valuation.residue", "valuation.ValuationContext", "residue"),
    ("valuation.specialize", "valuation.ValuationContext", "specialize"),
    ("valuation.context_build", "valuation.ValuationContext", "__init__"),
    ("fields.field_build", "fields.FiniteField", "__init__"),
    ("fields.residue_data_build", "fields._ResidueData", "__init__"),
    ("fields.poly_factor", "fields", "poly_factor"),
    ("fields.monic_irreducibles", "fields", "monic_irreducibles"),
    ("symbols.SymExpr.mul", "symbols.SymExpr", "mul"),
    ("symbols.relation_generators", "symbols", "relation_generators"),
    ("suites.sampling", "suites", "unit_sampler"),
    ("suites.sampling", "suites", "sample_presentation"),
    ("suites.sampling", "suites", "sample_expr"),
    ("suites.sampling", "suites", "sample_torsion_coeff"),
    ("suites.sampling", "suites", "sample_coeff"),
    ("suites.sampling", "suites", "sample_sequence"),
    ("exprtext.parse_expr", "exprtext", "parse_expr"),
    ("exprtext.parse_field_spec", "exprtext", "parse_field_spec"),
    ("cli.main", "cli", "main"),
)

COUNTS = (
    ("model.MWElem.new", "model.MWElem", "__init__"),
    ("model.MWElem.add", "model.MWElem", "add"),
    ("model.MWElem.mul", "model.MWElem", "mul"),
    ("fields.ff_build", "fields", "ff_build"),
    ("fields.FiniteField.add", "fields.FiniteField", "add"),
    ("fields.FiniteField.mul", "fields.FiniteField", "mul"),
    ("symbols.SymExpr.new", "symbols.SymExpr", "__init__"),
    ("suites.checks", "suites.Report", "check"),
)

# Spans kept individually in the span log (the rest are only aggregated):
# the benchmark's own per-operation spans and the coarse oracle calls.
LOGGED = {"cli.main", "model.snf_oracle", "model.group_structure_model"}


class Recorder:
    def __init__(self):
        self.clock = time.perf_counter
        self.stats = {}  # name -> [calls, total_s, self_s, open depth]
        self.counts = {}  # name -> [calls]
        self.extra = {"valuation.terms_scanned": 0, "valuation.context_lookups": 0,
                      "valuation.context_misses": 0, "model.snf_rows": 0}
        self.stack = []  # one [child time] cell per open span
        self.log = []  # [name, start, end, parent index] of logged spans
        self.log_stack = []  # indices of open logged spans
        self._patched = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, logged):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock, log, log_stack = self.stack, self.clock, self.log, self.log_stack

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            stat[3] += 1
            if logged:
                log_stack.append(len(log))
                log.append([name, 0.0, 0.0, log_stack[-2] if len(log_stack) > 1 else None])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += duration - cell[0]
                if not stat[3]:
                    stat[1] += duration
                if stack:
                    stack[-1][0] += duration
                if logged:
                    entry = log[log_stack.pop()]
                    entry[1], entry[2] = start, start + duration

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_span(self, name, fn, *args):
        """Call fn(*args) inside a logged span (the benchmark's own operations)."""
        return self._span_wrapper(name, fn, True)(*args)

    # -- installing ---------------------------------------------------------

    def install(self):
        import mwk.valuation
        from mwk import model

        for name, owner, attr in SPANS:
            self._patch(owner, attr, lambda fn, name=name: self._span_wrapper(name, fn, name in LOGGED))
        for name, owner, attr in COUNTS:
            self._patch(owner, attr, lambda fn, name=name: self._count_wrapper(name, fn))
        extra = self.extra
        scan = mwk.valuation.ValuationContext.residue_model

        def residue_model(ctx, x, *args, **kwargs):
            extra["valuation.terms_scanned"] += len(x.terms)
            return scan(ctx, x, *args, **kwargs)

        self._set(mwk.valuation.ValuationContext, "residue_model", residue_model)
        builds = self.stats["valuation.context_build"]
        lookup = mwk.valuation.valuation_context

        def valuation_context(*args, **kwargs):
            before = builds[0]
            ctx = lookup(*args, **kwargs)
            extra["valuation.context_lookups"] += 1
            extra["valuation.context_misses"] += builds[0] > before
            return ctx

        self._rebind(lookup, valuation_context)
        rows = model._Presentation.relation_rows

        def relation_rows(pres):
            for row in rows(pres):
                extra["model.snf_rows"] += 1
                yield row

        self._set(model._Presentation, "relation_rows", relation_rows)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner_path, attr, make):
        module_name, _, class_name = owner_path.partition(".")
        owner = sys.modules["mwk." + module_name]
        if class_name:
            owner = getattr(owner, class_name)
            self._set(owner, attr, make(owner.__dict__[attr]))
        else:
            original = getattr(owner, attr)
            self._rebind(original, make(original))

    def _rebind(self, original, wrapped):
        for module_name, module in list(sys.modules.items()):
            if module_name == "mwk" or module_name.startswith("mwk."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def table(self):
        """Every recorded boundary: spans with calls/total_s/self_s, counts."""
        out = {}
        for name, (calls, total, self_time, _) in sorted(self.stats.items()):
            out[name] = {"calls": calls, "total_s": total, "self_s": self_time}
        for name, (calls,) in sorted(self.counts.items()):
            out[name] = {"calls": calls}
        return out
