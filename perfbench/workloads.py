"""The four benchmark workloads: their seeded inputs, how one operation runs
through the public API, and how its answer is checked.

An operation is one suite run (verify-fq, verify-ft), one oracle comparison
(group-snf) or one `mwk eval` request (eval-cli).  Every function here is
called inside a fresh interpreter started by `child.py`; nothing in this
module imports `mwk` at import time, so that the set-up timing in
`child.py` sees the package's own import cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

# Suites that accept F_q.  thm84 runs over the base field only, so the
# function-field workload swaps it for the two suites that need F_q(t).
FQ_SUITES = (
    "lemma32", "relations34", "lambda-wd", "prop64", "shift73", "lemma75",
    "prop83", "thm84", "lemma91", "lemma93", "table1",
)
FT_SUITES = tuple(s for s in FQ_SUITES if s != "thm84") + ("seq37", "prop36")

# The presentation oracle refuses (q-1)^(n+d_max) generators above the
# package's enumeration bound; group-snf keeps only comparisons within it.
GROUP_QS = (3, 5, 7, 9, 11, 13)
GROUP_NS = (0, 1, 2, 3)

EVAL_FIELDS = ("3", "9", "5(t)", "25(t)")
# Fixed shares of the request stream (1/8, 1/8, 1/2, 1/4): with shares
# drawn per request, the median would jump between the fast F_q requests
# and the F_q(t) ones as the seed moved the F_q share around one half.
EVAL_MIX = ("3", "9", "5(t)", "5(t)", "5(t)", "5(t)", "25(t)", "25(t)")
# Requests per pass whose first unit is a product of two irreducible cubics.
# Factoring it finds no factor of degree <= 2, so over 25(t) the first one
# in an interpreter lists every monic cubic over F_25 (the slowest cold path
# of `mwk eval`) and then fails with SizeBound.  A fixed count keeps that
# cost in every pass whatever the seed.
EVAL_CUBIC_PAIRS = {"5(t)": 2, "25(t)": 2}


class Workload:
    """One named workload: the field specs built in set-up and its sizes."""

    def __init__(self, name, kind, fields, size, tiny_size):
        self.name = name
        self.kind = kind
        self.fields = fields
        self.size = size
        self.tiny_size = tiny_size


# `size` is the suite trial count (verify-*), unused (group-snf), or the
# number of requests per pass (eval-cli); `tiny_size` is the smoke-run size.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-fq", "suites", ("3", "9"), 200, 5),
        Workload("verify-ft", "suites", ("3(t)", "5(t)", "25(t)"), 20, 3),
        Workload("group-snf", "group", tuple(str(q) for q in GROUP_QS), 0, 0),
        Workload("eval-cli", "eval", EVAL_FIELDS, 1000, 30),
    )
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_ops(workload, seed, tiny=False):
    """The seeded operation list of one pass (identical for every pass)."""
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.kind == "suites":
        suites = FQ_SUITES if workload.name == "verify-fq" else FT_SUITES
        if tiny:
            suites = tuple(s for s in suites if s not in ("thm84", "table1"))
        return [(spec, suite) for spec in workload.fields for suite in suites]
    if workload.kind == "group":
        from mwk.fields import size_bound

        ops = [
            (q, n, 4 if n == 0 else 3)
            for q in GROUP_QS
            for n in GROUP_NS
            if (q - 1) ** (n + (4 if n == 0 else 3)) <= size_bound()
        ]
        if tiny:
            ops = [op for op in ops if op[0] <= 5 and op[1] <= 1]
        rng.shuffle(ops)
        return ops
    count = workload.tiny_size if tiny else workload.size
    specs = [EVAL_MIX[i % len(EVAL_MIX)] for i in range(count)]
    rng.shuffle(specs)
    pairs = dict(EVAL_CUBIC_PAIRS)
    ops = []
    for spec in specs:
        cubic_pair = pairs.get(spec, 0) > 0
        if cubic_pair:
            pairs[spec] -= 1
        ops.append(eval_request(rng, spec, cubic_pair))
    return ops


def _poly_text(coeffs):
    """A polynomial in t (coefficients low to high) in the exprtext syntax."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        mono = "t" if i == 1 else f"t^{i}"
        parts.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(parts)


def _random_poly(rng, q, deg):
    return "(" + _poly_text([rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]) + ")"


def _irreducible_cubic(rng):
    """A random monic cubic over F_5 with no root, hence irreducible over F_5,
    and over F_25 too (3 is prime to 2); F_5 is encoded as 0-4 in both."""
    while True:
        coeffs = [rng.randrange(5) for _ in range(3)] + [1]
        if all(sum(c * x**i for i, c in enumerate(coeffs)) % 5 for x in range(5)):
            return "(" + _poly_text(coeffs) + ")"


def _random_unit(rng, spec, cubic_pair=False):
    if spec.endswith("(t)"):
        # A product of two polynomials of degree 1-3; products of two cubics
        # come only from the fixed EVAL_CUBIC_PAIRS, so that the cost of
        # factoring them does not depend on how many the seed draws.
        q = int(spec[:-3])
        if cubic_pair:
            unit = f"{_irreducible_cubic(rng)}*{_irreducible_cubic(rng)}"
        else:
            degrees = (3, 3)
            while degrees == (3, 3):
                degrees = (rng.randint(1, 3), rng.randint(1, 3))
            unit = "*".join(_random_poly(rng, q, deg) for deg in degrees)
        if rng.random() < 0.3:
            unit += f"*{_random_poly(rng, q, rng.randint(1, 3))}^-1"
        return unit
    q = int(spec)
    unit = str(rng.randrange(1, q))
    if rng.random() < 0.3:
        unit += f"*({rng.randrange(1, q)})^-1"
    return unit


def eval_request(rng, spec, cubic_pair=False):
    """One `mwk eval` request: a signed symbol of 1-3 entries over `spec`."""
    units = [_random_unit(rng, spec, cubic_pair and i == 0) for i in range(rng.randint(1, 3))]
    sign = rng.choice(("", "-", "2*", "-1*"))
    return spec, f"{sign}[{', '.join(units)}]"


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------


def run_op(workload, op, fields, seed, tiny=False):
    """Run one operation; returns (failed, payload) with a deterministic payload.

    `failed` is True when the operation ended in an MWKError, a nonzero exit
    or SystemExit; the payload then names the error.
    """
    from mwk.errors import MWKError

    if workload.kind == "suites":
        from mwk.suites import SuiteConfig, run_suite

        spec, suite = op
        trials = workload.tiny_size if tiny else workload.size
        try:
            report = run_suite(suite, SuiteConfig(field=fields[spec], trials=trials, seed=seed))
        except MWKError as exc:
            return True, {"error": type(exc).__name__, "message": str(exc)}
        payload = report.to_json()
        del payload["elapsed_s"]
        return False, payload
    if workload.kind == "group":
        from mwk.model import group_structure_model, snf_oracle

        q, n, d_max = op
        field = fields[str(q)]
        try:
            model = group_structure_model(field, n)
            oracle = snf_oracle(field, n, d_max)
        except MWKError as exc:
            return True, {"error": type(exc).__name__, "message": str(exc)}
        return False, {"model": model, "oracle": oracle}
    from mwk.cli import main

    spec, text = op
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["eval", "--field", spec, "--json", "--", text])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        return True, {"exit": code, "stderr": err.getvalue().strip()}
    return False, json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# checking answers (outside the timed phase)
# ---------------------------------------------------------------------------


def check_op(workload, op, fields, payload):
    """None when the answer of a successful operation is right, else why not."""
    if "crash" in payload:
        return f"{op} raised {payload['error']}\n{payload['crash']}"
    if workload.kind == "suites":
        if not payload["passed"]:
            return f"suite {op[1]} over {op[0]} failed: {payload['failures'][:3]}"
        return None
    if workload.kind == "group":
        if payload["oracle"]["final"] != payload["model"]:
            return f"oracles disagree at q={op[0]} n={op[1]} d_max={op[2]}"
        return None
    return _check_eval(op, fields, payload)


def _as_json(value):
    """The value as the CLI's JSON output reads back (tuples become lists)."""
    return json.loads(json.dumps(value))


def _check_eval(op, fields, payload):
    from mwk.exprtext import format_expr, parse_expr
    from mwk.fields import Place, RatFuncField
    from mwk.model import eval_model
    from mwk.valuation import residue, specialize

    spec, text = op
    field = fields[spec]
    expr = parse_expr(text, field)
    degree = expr.degree(0)
    if payload["degree"] != degree:
        return f"degree {payload['degree']} reported for {text!r}, expected {degree}"
    if isinstance(field, RatFuncField):
        # the symbolic residue/specialization path, evaluated in the model,
        # at the places the canonical form scans
        t_place = Place(field, field.var_poly())
        places = {t_place: True}
        for p in expr.support_places():
            places[p] = True
        residues = []
        for place in places:
            r = eval_model(residue(expr, place), degree - 1)
            if not r.is_zero():
                residues.append((place.degree, str(place), r.to_json()))
        base = eval_model(specialize(expr, t_place), degree)
        expected = {
            "degree": degree,
            "base": base.to_json(),
            "residues": [[name, value] for _, name, value in sorted(residues, key=lambda r: r[:2])],
        }
        zero = base.is_zero() and not residues
        if payload["canonical_form"] != _as_json(expected) or payload["zero"] != zero:
            return f"canonical form mismatch for {text!r} over {spec}"
        return None
    again = parse_expr(format_expr(expr), field)
    value = eval_model(again, degree)
    if again != expr or payload["value"] != _as_json(value.to_json()) or value.is_zero() != payload["zero"]:
        return f"format/parse round trip changed {text!r} over {spec}"
    return None
