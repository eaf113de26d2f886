"""Verification suites: every identity the library relies on, run against
the applicable equality oracle with seeded sampling and machine-readable
reports.

Each suite is a check registered once by `_suite` under its id and anchor
(a one-line description of the verified law); `run_suite` gives it a fresh
report, seeded rng and oracle.  The report's JSON holds the suite id, the
anchor, the field, trial and failure counts, and the seed.  A suite passes
iff it records at least one check and no failures.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .errors import FieldMismatch, TorsionViolation, UnknownSuite
from .exprtext import format_field_spec
from .fields import (
    FiniteField,
    Place,
    Poly,
    RatFuncField,
    first_monic_irreducible,
    size_bound,
)
from .model import (
    MILNOR,
    MOD2,
    MW,
    WITT,
    MWElem,
    minus_one_power,
    model_elements,
    theory_elements,
    theory_group_is_trivial,
)
from .operations import (
    ADMISSIBILITY_RULES,
    OpSequence,
    admissible,
    allowed_coefficients,
    delta,
    f_eval,
    f_lambda_convert,
    lambda_eval,
    oracle_for,
)
from .symbols import (
    SymExpr,
    embed_expr,
    eta_reduce,
    one_minus,
    power_symbol,
    relation_generators,
    rewrite_mw2,
    unit_sampler,
    witt_generator,
)
from .valuation import ValuationContext, canonical_form, valuation_context


@dataclass
class SuiteConfig:
    field: object
    n: int = 1
    m: int = 2
    trials: int = 200
    seed: int = 0
    trunc: int = 8
    d_max: int = 3


class Report:
    def __init__(self, suite_id, anchor, config):
        self.suite_id = suite_id
        self.anchor = anchor
        self.config = config
        self.field_spec = format_field_spec(config.field)
        self.trials = 0
        self.failures = []
        self.notes = []
        self._start = time.time()

    def check(self, ok, label):
        self.trials += 1
        if not ok:
            self.failures.append(label)

    def equal(self, oracle, a, b, theory, degree, label):
        """Check a == b in `theory` and `degree` under the oracle; returns
        the outcome, recorded like every check through `check`."""
        ok = oracle.equal(a, b, theory, degree)
        self.check(ok, label)
        return ok

    def zero(self, oracle, a, theory, degree, label):
        """Check a == 0 in `theory` and `degree` under the oracle."""
        ok = oracle.is_zero(a, theory, degree)
        self.check(ok, label)
        return ok

    def note(self, text):
        self.notes.append(text)

    @property
    def passed(self):
        return self.trials > 0 and not self.failures  # a run without checks shows nothing

    def to_json(self):
        return {
            "suite_id": self.suite_id,
            "paper_anchor": self.anchor,
            "field": self.field_spec,
            "seed": self.config.seed,
            "trials": self.trials,
            "failures": self.failures[:50],
            "failure_count": len(self.failures),
            "notes": self.notes + ([] if self.trials else ["no check ran"]),
            "passed": self.passed,
            "elapsed_s": round(time.time() - self._start, 3),
        }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {}  # suite id -> (anchor, check), in registration order


def _suite(suite_id, anchor):
    """Register check(rep, config, rng, oracle) as the suite suite_id."""

    def register(check):
        SUITES[suite_id] = (anchor, check)
        return check

    return register


def run_suite(suite_id, config):
    """Run a suite on a fresh report, an rng seeded with config.seed and a
    fresh oracle of config.field (so the sigma cache is one per run)."""
    if suite_id not in SUITES:
        raise UnknownSuite(f"unknown suite id {suite_id!r}; known: {sorted(SUITES)}")
    anchor, check = SUITES[suite_id]
    rep = Report(suite_id, anchor, config)
    check(rep, config, random.Random(config.seed), oracle_for(config.field))
    return rep


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _draw_symbols(n, rng, r_max, s_max, sampler):
    """The unit tuples of r <= r_max positive and then s <= s_max negative
    pure symbols of length n, r and s drawn first in each group."""
    pos = [tuple(sampler() for _ in range(n)) for _ in range(rng.randrange(0, r_max + 1))]
    neg = [tuple(sampler() for _ in range(n)) for _ in range(rng.randrange(0, s_max + 1))]
    return pos, neg


def _signed_sum(field, pos, neg):
    """The presentation sum_i [pos_i] - sum_j [neg_j] as an expression."""
    return SymExpr(field, [((0, u), 1) for u in pos] + [((0, u), -1) for u in neg])


def sample_presentation(field, n, rng, r_max, s_max, sampler):
    """A random presentation sum_i [a_i] - sum_j [b_j] of degree n."""
    return _signed_sum(field, *_draw_symbols(n, rng, r_max, s_max, sampler))


def sample_expr(field, degree, rng, max_terms, max_eta, sampler=None):
    """A random homogeneous expression of the given degree."""
    sampler = sampler or unit_sampler(field, rng)
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        d = rng.randrange(0, max_eta + 1)
        if degree + d < 0:
            d = -degree
        units = tuple(sampler() for _ in range(degree + d))
        terms.append(((d, units), rng.choice([-2, -1, 1, 2])))
    return SymExpr(field, terms)


def sample_torsion_coeff(base_field, degree, rng):
    """A random h-torsion coefficient of the given degree (possibly zero):
    from index 2 on at odd n, the (MW, MW) row admits exactly those."""
    return rng.choice(allowed_coefficients(base_field, MW, MW, 1, 2, degree))


def sample_coeff(base_field, degree, rng):
    return rng.choice(model_elements(base_field, degree, rank_window=2))


def sample_sequence(field, source, target, n, m, L, rng):
    """A random admissible coefficient sequence."""
    coeffs = [
        rng.choice(allowed_coefficients(field, source, target, n, l, m - n * l))
        for l in range(L + 1)
    ]
    return OpSequence._admitted(source, target, n, m, field, coeffs)


# ---------------------------------------------------------------------------
# negative controls: a perturbation that changes a value
# ---------------------------------------------------------------------------


def _perturbation_search(oracle, value, probes, generators, theory, degree):
    """Search for a probe x and a generator g with value(x + g) != value(x)
    under the oracle: probes outer, generators inner, one unperturbed value
    per probe, stopping at the first change.  Returns whether a change was
    found and the unperturbed values computed (all of them if none was)."""
    values = []
    for x in probes:
        values.append(value(x))
        for gen in generators:
            if not oracle.equal(values[-1], value(x.add(gen)), theory, degree):
                return True, values
    return False, values


# ---------------------------------------------------------------------------
# suite: the defining relations and the relation list (lemma32)
# ---------------------------------------------------------------------------


@_suite("lemma32", "defining relations and the nine core symbol laws")
def lemma32(rep, config, rng, oracle):
    field = config.field
    sampler = unit_sampler(field, rng)

    if isinstance(field, FiniteField) and (field.q - 1) ** 2 <= size_bound():
        pairs = [
            (field.unit_exp(i), field.unit_exp(j))
            for i in range(field.q - 1)
            for j in range(field.q - 1)
        ]
        rep.note(f"exhaustive over {len(pairs)} unit pairs")
    else:
        pairs = [(sampler(), sampler()) for _ in range(config.trials)]

    one = SymExpr.one(field)
    eps = SymExpr.eps_elem(field)
    h = SymExpr.h_elem(field)
    m1 = field.minus_one()

    rep.zero(oracle, h.eta_mul(), MW, -1, "MW4: eta*h = 0")
    rep.zero(oracle, SymExpr.bracket(field.one_unit()), MW, 1, "(i): [1] = 0")
    rep.equal(oracle, SymExpr.angle(field.one_unit()), one, MW, 0, "(i): <1> = 1")
    rep.equal(oracle, eps.mul(eps), one, MW, 0, "(vi): eps^2 = 1")

    for a, b in pairs:
        omb = one_minus(a)
        if omb is not None:
            rep.zero(oracle, SymExpr.bracket(a, omb), MW, 2, f"MW1 at {a}")
        rep.equal(oracle, SymExpr.bracket(a.mul(b)), rewrite_mw2(a, b), MW, 1, f"MW2 at ({a},{b})")
        rep.zero(oracle, SymExpr.bracket(a, a.negate()), MW, 2, f"(iii) [a,-a] at {a}")
        rep.zero(oracle, SymExpr.bracket(a.negate(), a), MW, 2, f"(iii) [-a,a] at {a}")
        aa = SymExpr.bracket(a, a)
        rep.equal(oracle, SymExpr.bracket(a, m1), aa, MW, 2, f"(iv) [a,-1] = [a,a] at {a}")
        rep.equal(oracle, SymExpr.bracket(m1, a), aa, MW, 2, f"(iv) [-1,a] = [a,a] at {a}")
        rep.equal(
            oracle,
            SymExpr.angle(a).mul(SymExpr.bracket(a)),
            SymExpr.angle(m1).mul(SymExpr.bracket(a)),
            MW,
            1,
            f"(iv) <a>[a] = <-1>[a] at {a}",
        )
        rep.equal(
            oracle, SymExpr.angle(a).mul(SymExpr.angle(b)), SymExpr.angle(a.mul(b)), MW, 0,
            f"(vi) <a><b> = <ab> at ({a},{b})",
        )
        rep.equal(
            oracle, SymExpr.angle(a).mul(SymExpr.angle(a)), one, MW, 0, f"(vii) <a>^2 = 1 at {a}"
        )
        rep.equal(oracle, SymExpr.angle(a.mul(a)), one, MW, 0, f"(vii) <a^2> = 1 at {a}")
        rep.equal(
            oracle,
            SymExpr.angle(a).mul(SymExpr.bracket(b)),
            SymExpr.bracket(a.mul(b)).sub(SymExpr.bracket(a)),
            MW,
            1,
            f"(ix) <a>[b] = [ab] - [a] at ({a},{b})",
        )

    # unit powers (v)
    power_trials = pairs[: min(len(pairs), 40)]
    for a, _ in power_trials:
        for e in (-3, -2, -1, 0, 1, 2, 3, 4):
            lhs = SymExpr.bracket(a.pow(e)) if e != 0 else SymExpr.zero(field)
            rep.equal(oracle, lhs, power_symbol(a, e), MW, 1, f"(v) [a^{e}] at {a}")

    # graded commutativity (ii) and centrality of unit forms (viii):
    # the instance space (arbitrary expressions) is unbounded, so these
    # always run the configured number of random trials
    comm_trials = max(10, config.trials // 2)
    for i in range(comm_trials):
        dx = rng.choice([-1, 0, 1, 2])
        dy = rng.choice([-1, 0, 1, 2])
        x = sample_expr(field, dx, rng, max_terms=1, max_eta=1, sampler=sampler)
        y = sample_expr(field, dy, rng, max_terms=1, max_eta=1, sampler=sampler)
        lhs = x.mul(y)
        rhs = y.mul(x)
        if (dx * dy) % 2:
            rhs = eps.mul(rhs)
        rep.equal(oracle, lhs, rhs, MW, dx + dy, f"(ii) graded commutativity trial {i}")
        a = sampler()
        ua = SymExpr.angle(a)
        rep.equal(oracle, ua.mul(x), x.mul(ua), MW, dx, f"(viii) <a> central trial {i}")
        rep.zero(
            oracle, SymExpr.bracket(a).eta_mul().sub(SymExpr.bracket(a).eta_mul()), MW, 0, "MW3"
        )


# ---------------------------------------------------------------------------
# suite: presentation relation generators evaluate to zero (relations34)
# ---------------------------------------------------------------------------


@_suite("relations34", "standard-presentation relation generators evaluate to zero")
def relations34(rep, config, rng, oracle):
    field = config.field
    sampler = unit_sampler(field, rng)
    per_family = max(5, config.trials // 10)
    count = 0
    for kind, gen in relation_generators(
        field, config.n, config.d_max, sampler=sampler, rng=rng, per_family=per_family
    ):
        if gen.max_term_size() > 7:
            continue
        rep.zero(oracle, gen, MW, config.n, f"{kind} generator #{count} nonzero")
        count += 1
        if count >= config.trials:
            break


# ---------------------------------------------------------------------------
# suite: well-definedness of the divided powers (lambda-wd)
# ---------------------------------------------------------------------------


@_suite("lambda-wd", "divided powers factor through the presentation (perturbation trials)")
def lambda_wd(rep, config, rng, oracle):
    field = config.field
    n = config.n
    base = oracle.base
    sampler = unit_sampler(field, rng, max_degree=2)

    # the trials read the first config.trials generators, the negative
    # control the first 12 Witt ones: stop pulling once both are held
    generators, witt = [], 0
    for kind, gen in relation_generators(
        field, n, d_max=2, sampler=sampler, rng=rng, per_family=max(10, config.trials // 3)
    ):
        if gen.max_term_size() <= 5:
            generators.append((kind, gen))
            witt += kind == "witt"
            if len(generators) >= config.trials and witt >= 12:
                break

    for trial in range(config.trials if generators else 0):
        kind, gen = generators[trial % len(generators)]
        x = sample_presentation(field, n, rng, r_max=1, s_max=1, sampler=sampler)
        y = sample_torsion_coeff(base, rng.choice([0, -1]), rng)
        l = rng.choice([2, 3])
        perturbed = x.add(gen)
        try:
            v1 = lambda_eval(n, l, y, x, oracle)
            v2 = lambda_eval(n, l, y, perturbed, oracle)
        except TorsionViolation:
            rep.check(False, f"unexpected torsion rejection ({kind})")
            continue
        rep.equal(
            oracle, v1, v2, MW, y.degree + l * n, f"lambda_{l} changed under {kind} perturbation"
        )

    # negative control: odd n with a non-h-torsion coefficient must be
    # rejected at the precondition, and actually breaks an identity
    if delta(n) == 1:
        bad = MWElem.one(base)
        x = sample_presentation(field, n, rng, r_max=1, s_max=0, sampler=sampler)
        try:
            lambda_eval(n, 2, bad, x, oracle)
            rep.check(False, "negative control not rejected at the precondition")
        except TorsionViolation:
            rep.check(True, "negative control rejected")
        target_degree = bad.degree + 2 * n
        if not theory_group_is_trivial(field, MW, target_degree):
            # the target is nonzero only over F_q(t) with n = 1; an h-multiple
            # only survives when a place has a residue field larger than the
            # constants, so seed a degree-2 irreducible
            deg2 = field.from_poly(first_monic_irreducible(field.base, 2))
            witt_gens = [witt_generator(1, (field.t_unit(), deg2), 0)]
            witt_gens += [g for kind, g in generators if kind == "witt"][:12]
            probes = [SymExpr.zero(field)]
            probes += [
                sample_presentation(field, n, rng, r_max=1, s_max=0, sampler=sampler)
                for _ in range(3)
            ]
            # lambda_2(x) . bad, read past the precondition that rejects bad
            violated, _ = _perturbation_search(
                oracle,
                lambda x: oracle.lambda_values(x, n, 2)[2].mul(oracle.from_base(bad)),
                probes,
                [g for g in witt_gens if g.max_term_size() <= 6],
                MW,
                target_degree,
            )
            rep.check(violated, "negative control produced no detectable violation")
        elif isinstance(field, RatFuncField):
            # no instance can witness a violation in a zero group (over F_q
            # the degree-2n target is zero for every odd n, and goes unnoted)
            rep.note(
                f"negative control: K^MW_{target_degree}({rep.field_spec}) = 0, "
                "violation search skipped"
            )
        rep.note("negative control: precondition rejection verified")


# ---------------------------------------------------------------------------
# suite: sum formula and elementary-symmetric evaluation (prop64)
# ---------------------------------------------------------------------------


@_suite("prop64", "divided-power sum formula and elementary-symmetric values")
def prop64(rep, config, rng, oracle):
    field = config.field
    n = config.n
    base = oracle.base
    sampler = unit_sampler(field, rng, max_degree=1)
    L = 3

    for trial in range(config.trials):
        x = sample_presentation(field, n, rng, r_max=2, s_max=1, sampler=sampler)
        xp = sample_presentation(field, n, rng, r_max=2, s_max=1, sampler=sampler)
        y = sample_torsion_coeff(base, rng.choice([0, -1]), rng)
        sx = oracle.lambda_values(x, n, L)
        sxp = oracle.lambda_values(xp, n, L)
        sboth = oracle.lambda_values(x.add(xp), n, L)
        l = rng.randrange(1, L + 1)
        acc = oracle.zero(l * n)
        for i in range(l + 1):
            acc = acc.add(sx[i].mul(sxp[l - i]))
        y_val = oracle.from_base(y)
        rep.equal(
            oracle, sboth[l].mul(y_val), acc.mul(y_val), MW, y.degree + l * n,
            f"sum formula trial {trial} (l={l})",
        )

        # elementary-symmetric evaluation on all-positive presentations,
        # in both index orders (the values live in a commutative setting
        # since y is h-torsion, so the permuted products must agree)
        if trial % 2 == 0:
            r = rng.randrange(1, 4)
            symbols = [tuple(sampler() for _ in range(n)) for _ in range(r)]
            l2 = rng.randrange(0, min(r, 2) + 1)
            got = lambda_eval(n, l2, y, _signed_sum(field, symbols, ()), oracle)
            acc2 = rev2 = oracle.zero(l2 * n)
            for subset in itertools.combinations(range(r), l2):
                term = oracle.one()
                rterm = oracle.one()
                for i in subset:
                    term = term.mul(oracle.bracket(symbols[i]))
                for i in reversed(subset):
                    rterm = rterm.mul(oracle.bracket(symbols[i]))
                acc2 = acc2.add(term)
                rev2 = rev2.add(rterm)
            deg2 = y.degree + l2 * n
            rep.equal(
                oracle, got, acc2.mul(y_val), MW, deg2,
                f"elementary symmetric trial {trial} (l={l2}, r={r})",
            )
            rep.equal(
                oracle, got, rev2.mul(y_val), MW, deg2,
                f"permuted-presentation symmetry trial {trial} (l={l2}, r={r})",
            )

        # eta-carrying terms: the subset-product series must agree with the
        # series of the pure-symbol rewriting of the same element
        if trial % 3 == 0:
            d = rng.randrange(1, 3)
            units = tuple(sampler() for _ in range(n + d))
            expr = SymExpr(field, {(d, units): rng.choice([-1, 1])})
            reduced = eta_reduce(expr)
            sa = oracle.lambda_values(expr, n, 2)
            sb = oracle.lambda_values(reduced, n, 2)
            for l3 in (1, 2):
                rep.equal(
                    oracle, sa[l3].mul(y_val), sb[l3].mul(y_val), MW, y.degree + l3 * n,
                    f"eta-form series trial {trial} (l={l3})",
                )


# ---------------------------------------------------------------------------
# suite: the shift calculus (shift73) and its laws (lemma75)
# ---------------------------------------------------------------------------


def _sequence_for_shift(config, rng, oracle, target=MW):
    return sample_sequence(oracle.base, MW, target, config.n, config.m, min(config.trunc, 4), rng)


@_suite("shift73", "defining shift identity and the shift formulas for sigma and lambda")
def shift73(rep, config, rng, oracle):
    field = config.field
    n = config.n
    base = oracle.base
    sampler = unit_sampler(field, rng, max_degree=1)

    for trial in range(config.trials):
        seq = _sequence_for_shift(config, rng, oracle)
        x = sample_presentation(field, n, rng, r_max=1, s_max=1, sampler=sampler)
        abar = tuple(sampler() for _ in range(n))
        sign = rng.choice([1, -1])
        x_mod = x.add(SymExpr.bracket(*abar).scale(sign))
        lhs = seq.apply(x_mod, oracle)
        rhs = seq.apply(x, oracle)  # before the shift, which reads a slice of x's series
        correction = oracle.bracket(abar).mul(seq.shift(sign).apply(x, oracle))
        rhs = rhs.add(correction) if sign == 1 else rhs.sub(correction)
        rep.equal(oracle, lhs, rhs, MW, seq.m, f"shift identity trial {trial} (sign {sign})")

        # lambda-level shift formulas
        if trial % 4 == 0:
            y = sample_torsion_coeff(base, 0, rng)
            l = rng.choice([2, 3])
            plus = x.add(SymExpr.bracket(*abar))
            lhs2 = lambda_eval(n, l, y, plus, oracle)
            rhs2 = lambda_eval(n, l, y, x, oracle).add(
                oracle.bracket(abar).mul(lambda_eval(n, l - 1, y, x, oracle))
            )
            rep.equal(
                oracle, lhs2, rhs2, MW, y.degree + l * n, f"lambda plus-shift formula trial {trial}"
            )
            minus = x.sub(SymExpr.bracket(*abar))
            lhs3 = lambda_eval(n, l, y, minus, oracle)
            acc = None
            for i in range(l):
                term = lambda_eval(n, i, y, x, oracle)
                tw = oracle.minus_one_power(n * (l - i - 1))
                term = tw.mul(term)
                if (l - (i + 1)) % 2 == 1:
                    term = term.neg()
                acc = term if acc is None else acc.add(term)
            rhs3 = lambda_eval(n, l, y, x, oracle).sub(oracle.bracket(abar).mul(acc))
            rep.equal(
                oracle, lhs3, rhs3, MW, y.degree + l * n,
                f"lambda minus-shift formula trial {trial}",
            )

        # sigma shift formulas per parity: the shift transform of the basis
        # sequence sigma_l . y must match sigma_{l-1} . y (plus the twisted
        # sigma_{l-2} term on the non-matching parity)
        if trial % 4 == 2:
            y = sample_torsion_coeff(base, 0, rng)
            l = rng.choice([2, 3, 4])
            m_local = n * l + y.degree
            sig = oracle.sigma_series(x, n, l)
            y_val = oracle.from_base(y)
            basis = [MWElem.zero(base, m_local - n * i) for i in range(l + 1)]
            basis[l] = y
            seq_l = OpSequence(MW, MW, n, m_local, base, basis)
            for sgn in (1, -1):
                direct = seq_l.shift(sgn).apply(x, oracle)
                want = sig[l - 1].mul(y_val)
                plain = (l % 2 == 0) == (sgn == 1)
                if not plain:
                    want = want.add(oracle.minus_one_power(n).mul(sig[l - 2]).mul(y_val))
                rep.equal(
                    oracle, direct, want, MW, m_local - n, f"sigma shift trial {trial} sign {sgn}"
                )


@_suite(
    "lemma75",
    "double-shift commutation, torsion of double plus-shifts, and the shift difference law",
)
def lemma75(rep, config, rng, oracle):
    field = config.field
    n = config.n
    sampler = unit_sampler(field, rng, max_degree=1)
    eps_pow_trivial_everywhere = True

    for trial in range(config.trials):
        seq = _sequence_for_shift(config, rng, oracle)
        x = sample_presentation(field, n, rng, r_max=1, s_max=1, sampler=sampler)
        # the single shifts first: they ask the oracle for x's series at the
        # largest truncation of the trial, and the double shifts read slices
        v_p = seq.shift(1).apply(x, oracle)
        v_m = seq.shift(-1).apply(x, oracle)
        pm = seq.shift(1).shift(-1)
        mp = seq.shift(-1).shift(1)
        v_pm = pm.apply(x, oracle)
        v_mp = mp.apply(x, oracle)
        rep.equal(
            oracle, v_pm, v_mp, MW, seq.m - 2 * n,
            f"(i) untwisted double-shift commutation trial {trial}",
        )
        if n % 2:
            eps_val = oracle.from_base(MWElem.eps(oracle.base))
            v_mp_twisted = eps_val.mul(v_mp)
        else:
            v_mp_twisted = v_mp
        if not rep.equal(
            oracle, v_pm, v_mp_twisted, MW, seq.m - 2 * n,
            f"(i) eps^n-twisted double-shift commutation trial {trial}",
        ):
            eps_pow_trivial_everywhere = False

        if delta(n) == 1:
            pp = seq.shift(1).shift(1)
            v_pp = pp.apply(x, oracle)
            h_val = oracle.from_base(MWElem.h(oracle.base))
            rep.zero(
                oracle, h_val.mul(v_pp), MW, seq.m - 2 * n,
                f"(ii) h-torsion of double plus-shift trial {trial}",
            )

        diff = v_p.sub(v_m)
        want = oracle.minus_one_power(n).mul(v_pm)
        rep.equal(oracle, diff, want, MW, seq.m - n, f"(iii) shift difference law trial {trial}")
    rep.note(
        "both the twisted and untwisted double-shift commutation forms hold"
        if eps_pow_trivial_everywhere
        else "only the untwisted double-shift commutation form holds"
    )


# ---------------------------------------------------------------------------
# suite: the vanishing bound (prop83)
# ---------------------------------------------------------------------------


@_suite("prop83", "sigma values vanish beyond twice the presentation size")
def prop83(rep, config, rng, oracle):
    """sigma_l(x) y = 0 for 2 max(r, s) < l <= L (L <= 5 over F_q(t)), x a
    random presentation of r positive and s negative symbols, r and s drawn
    up to min(3, (L - 1) // 2) (2 over F_q(t)) so that the bound fits L.  At
    L <= 2 no nonzero presentation fits: no trial runs ("no check ran")."""
    field = config.field
    n = config.n
    base = oracle.base
    symbolic = isinstance(field, RatFuncField)
    sampler = unit_sampler(field, rng, max_degree=1)
    L = config.trunc if not symbolic else min(config.trunc, 5)
    cap = min(2 if symbolic else 3, (L - 1) // 2)

    for trial in range(config.trials if cap > 0 else 0):
        pos, neg = _draw_symbols(n, rng, cap, cap, sampler)
        r, s = len(pos), len(neg)
        x = _signed_sum(field, pos, neg)
        y = sample_torsion_coeff(base, rng.choice([0, -1]), rng)
        sig = oracle.sigma_series(x, n, L)
        y_val = oracle.from_base(y)
        for l in range(2 * max(r, s) + 1, L + 1):
            rep.zero(
                oracle, sig[l].mul(y_val), MW, y.degree + l * n,
                f"sigma_{l} nonzero beyond the bound (r={r}, s={s}, trial {trial})",
            )


# ---------------------------------------------------------------------------
# suite: the sequence-operation roundtrip (thm84)
# ---------------------------------------------------------------------------


@_suite("thm84", "coefficient recovery: reading shifted operations at zero is inverse to assembly")
def thm84(rep, config, rng, oracle):
    """Every windowed tuple round-trips through g_map; every 25th also
    reads back through the shift chain itself (_reads_back).  The stride
    is odd: the tuples where a wrong twist shows recur with the
    power-of-two periods of the product order."""
    top = min(config.trunc, 4)  # the window ends at index 4
    count = 0
    for seq in thm84_sequences(oracle.base, config.trunc):
        ok = seq.roundtrip_ok() and (count % 25 != 0 or _reads_back(seq, top))
        rep.check(ok, f"roundtrip failed (n={seq.n}, m={seq.m}, #{count})")
        count += 1
    rep.note(f"exhausted {count} admissible windowed coefficient tuples")


def _reads_back(seq, top):
    """Whether a_l, for each l <= top, is the value at 0 of seq shifted
    ceil(l/2) times positively and floor(l/2) times negatively, in both
    orders.  The chain runs on the prefix a_0..a_(2 top): position 0 after
    l shifts reads nothing beyond index 2l."""
    prefix = OpSequence._admitted(
        seq.source, seq.target, seq.n, seq.m, seq.field, seq.coeffs[: 2 * top + 1]
    )
    for l in range(top + 1):
        plus, minus = (l + 1) // 2, l // 2
        for chain in (prefix.shifted(plus, minus), prefix.shifted(plus, 0).shifted(0, minus)):
            if chain.coeff(0) != seq.coeffs[l]:
                return False
    return True


def thm84_sequences(field, L):
    """thm84's sequences over F_q, in order: for n in (1, 2) and m in
    (0, 1, 2), every tuple of allowed coefficients in the degree window
    |m - n*l| <= 2, zero outside it."""
    for n in (1, 2):
        for m in (0, 1, 2):
            choices = [
                allowed_coefficients(field, MW, MW, n, l, m - n * l)
                if abs(m - n * l) <= 2
                else (MWElem.zero(field, m - n * l),)
                for l in range(L + 1)
            ]
            for coeffs in itertools.product(*choices):
                yield OpSequence._admitted(MW, MW, n, m, field, coeffs)


# ---------------------------------------------------------------------------
# suites: the exact sequence and the residue laws (seq37, prop36)
# ---------------------------------------------------------------------------


@_suite("seq37", "split exact sequence: retraction, constants have no residues, additivity")
def seq37(rep, config, rng, oracle):
    rf = config.field
    if not isinstance(rf, RatFuncField):
        raise FieldMismatch("the seq37 suite needs a rational function field")
    base = rf.base
    ctx = valuation_context(Place(rf, rf.var_poly()))
    sampler = unit_sampler(rf, rng, max_degree=2)
    base_oracle = oracle_for(base)

    for trial in range(config.trials):
        deg = rng.choice([0, 1, 2])
        const = sample_expr(base, deg, rng, max_terms=2, max_eta=1)
        lifted = embed_expr(const, rf)
        rep.equal(base_oracle, ctx.specialize(lifted), const, MW, deg, f"s o i != id (trial {trial})")
        cf = canonical_form(lifted, deg)
        rep.check(not cf.residues, f"constant has residues (trial {trial})")

        x = sample_expr(rf, deg, rng, max_terms=2, max_eta=1, sampler=sampler)
        y = sample_expr(rf, deg, rng, max_terms=1, max_eta=1, sampler=sampler)
        cf_x, cf_y = canonical_form(x, deg), canonical_form(y, deg)
        cf_sum = canonical_form(x.add(y), deg)
        ok = cf_sum.base == cf_x.base.add(cf_y.base)
        places = set(cf_x.residues) | set(cf_y.residues) | set(cf_sum.residues)
        for p in places:
            za = cf_x.residues.get(p)
            zb = cf_y.residues.get(p)
            zs = cf_sum.residues.get(p)
            kappa_zero = MWElem.zero((za or zb or zs).field, deg - 1)
            total = (za or kappa_zero).add(zb or kappa_zero)
            if zs is None:
                ok = ok and total.is_zero()
            else:
                ok = ok and total == zs
        rep.check(ok, f"canonical form not additive (trial {trial})")


@_suite("prop36", "residue/specialization linearity, uniformizer change, and the left inverse")
def prop36(rep, config, rng, oracle):
    rf = config.field
    if not isinstance(rf, RatFuncField):
        raise FieldMismatch("the prop36 suite needs a rational function field")
    base = rf.base
    sampler = unit_sampler(rf, rng, max_degree=1)
    t_poly = rf.var_poly()
    t_place = Place(rf, t_poly)
    t_unit = rf.t_unit()
    ctx_t = valuation_context(t_place)
    base_oracle = oracle_for(base)

    for trial in range(config.trials):
        place = t_place if trial % 2 == 0 else Place(rf, Poly.make(base, [1, 1]))
        ctx = valuation_context(place)
        kappa = ctx.kappa
        res_oracle = oracle_for(kappa)
        deg = rng.choice([1, 2])
        x = sample_expr(rf, deg, rng, max_terms=2, max_eta=1, sampler=sampler)
        # a local unit at the place
        while True:
            u = sampler()
            if u.valuation(place) == 0:
                break
        u_bar = ctx.reduce_unit(u)
        lhs = ctx.residue(SymExpr.bracket(u).mul(x))
        rhs = SymExpr.eps_elem(kappa).mul(SymExpr.bracket(u_bar)).mul(ctx.residue(x))
        rep.equal(res_oracle, lhs, rhs, MW, deg, f"(i) residue unit rule trial {trial}")
        lhs = ctx.specialize(SymExpr.bracket(u).mul(x))
        rhs = SymExpr.bracket(u_bar).mul(ctx.specialize(x))
        rep.equal(res_oracle, lhs, rhs, MW, deg + 1, f"(i) specialization unit rule trial {trial}")
        lhs = ctx.residue(SymExpr.angle(u).mul(x))
        rhs = SymExpr.angle(u_bar).mul(ctx.residue(x))
        rep.equal(res_oracle, lhs, rhs, MW, deg - 1, f"(ii) residue unit-form rule trial {trial}")
        lhs = ctx.specialize(SymExpr.angle(u).mul(x))
        rhs = SymExpr.angle(u_bar).mul(ctx.specialize(x))
        rep.equal(res_oracle, lhs, rhs, MW, deg, f"(ii) specialization unit-form rule trial {trial}")
        # (iii) uniformizer change by a local unit
        ctx_u = ValuationContext(place, u.mul(place.uniformizer()))
        lhs = ctx_u.residue(x)
        rhs = SymExpr.angle(u_bar).mul(ctx.residue(x))
        rep.equal(res_oracle, lhs, rhs, MW, deg - 1, f"(iii) residue uniformizer change trial {trial}")
        lhs = ctx_u.specialize(x)
        rhs = ctx.specialize(x).add(
            SymExpr.eps_elem(kappa).mul(SymExpr.bracket(u_bar)).mul(ctx.residue(x))
        )
        rep.equal(res_oracle, lhs, rhs, MW, deg, f"(iii) specialization uniformizer change trial {trial}")
        # composite definition of the specialization map
        lhs = ctx.specialize_via_residue(x)
        rhs = ctx.specialize(x)
        rep.equal(res_oracle, lhs, rhs, MW, deg, f"composite specialization definition trial {trial}")
        # left inverse: residue at t of [t] * i(x) recovers x
        const = sample_expr(base, rng.choice([0, 1]), rng, max_terms=2, max_eta=1)
        lifted = embed_expr(const, rf)
        got = ctx_t.residue(SymExpr.bracket(t_unit).mul(lifted))
        rep.equal(base_oracle, got, const, MW, const.degree(0), f"left-inverse rule trial {trial}")


# ---------------------------------------------------------------------------
# suites: section-9 recoveries (lemma91, lemma93)
# ---------------------------------------------------------------------------


@_suite("lemma91", "hyperbolic-multiple perturbation expansion and the f/lambda conversion")
def lemma91(rep, config, rng, oracle):
    field = config.field
    n = config.n
    base = oracle.base
    sampler = unit_sampler(field, rng, max_degree=1)
    h_val = oracle.from_base(MWElem.h(base))

    for trial in range(config.trials):
        seq = _sequence_for_shift(config, rng, oracle)
        x = sample_presentation(field, n, rng, r_max=1, s_max=1, sampler=sampler)
        r = rng.choice([1, 2])
        signs = [rng.choice([0, 1]) for _ in range(r)]
        abars = [tuple(sampler() for _ in range(n)) for _ in range(r)]
        x_mod = x
        for s, abar in zip(signs, abars):
            squared = (abar[0].mul(abar[0]),) + abar[1:]
            x_mod = x_mod.add(SymExpr.bracket(*squared).scale(1 if s % 2 == 0 else -1))
        lhs = seq.apply(x_mod, oracle)
        rhs = seq.apply(x, oracle)
        for j in range(1, r + 1):
            for subset in itertools.combinations(range(r), j):
                e = sum(1 for i in subset if signs[i] % 2 == 0)
                o = j - e
                shifted = seq.shifted(e, o)
                term = shifted.apply(x, oracle)
                for i in reversed(subset):
                    term = oracle.bracket(abars[i]).mul(term)
                for _ in range(j):
                    term = h_val.mul(term)
                if sum(signs[i] for i in subset) % 2 == 1:
                    term = term.neg()
                rhs = rhs.add(term)
        rep.equal(oracle, lhs, rhs, MW, seq.m, f"h-perturbation expansion trial {trial} (r={r})")

    # f/lambda conversion: involution on coefficient tuples, and agreement of
    # the conversion formula with the inverted-series evaluation
    for trial in range(min(config.trials, 40)):
        m = rng.randrange(0, 4)
        coeffs = [sample_coeff(base, m - n * l, rng) for l in range(config.trunc + 1)]
        back = f_lambda_convert(f_lambda_convert(coeffs, n, base), n, base)
        rep.check(
            all(u == v for u, v in zip(coeffs, back)),
            f"f/lambda conversion not involutive (trial {trial})",
        )
        x = sample_presentation(field, n, rng, r_max=2, s_max=0, sampler=sampler)
        y = sample_torsion_coeff(base, 0, rng)
        l = rng.choice([1, 2, 3])
        va = f_eval(n, l, y, x, oracle)
        vb = f_eval(n, l, y, x, oracle, direct=True)
        rep.equal(
            oracle, va, vb, MW, y.degree + l * n,
            f"f formula vs inverted series (trial {trial}, l={l})",
        )


@_suite("lemma93", "eta-multiple perturbation law for eta-trivial targets")
def lemma93(rep, config, rng, oracle):
    field = config.field
    n = config.n
    sampler = unit_sampler(field, rng, max_degree=1)

    for trial in range(config.trials):
        target = rng.choice([MILNOR, MOD2])
        seq = _sequence_for_shift(config, rng, oracle, target=target)
        x = sample_presentation(field, n, rng, r_max=1, s_max=1, sampler=sampler)
        a, b = sampler(), sampler()
        cs = tuple(sampler() for _ in range(n - 1))
        eta_term = SymExpr(field, {(1, (a, b) + cs): 1})
        sign = rng.choice([1, -1])
        lhs = seq.apply(x.add(eta_term.scale(sign)), oracle)
        rhs = seq.apply(x, oracle)  # before the shifts, which read a slice of x's series
        shifted = seq.shifted(0, 2) if sign == 1 else seq.shifted(2, 0)
        corr = (
            oracle.bracket((a, b) + cs)
            .mul(oracle.minus_one_power(n - 1))
            .mul(shifted.apply(x, oracle))
        )
        rhs = rhs.sub(corr)
        rep.equal(
            oracle, lhs, rhs, target, seq.m,
            f"eta perturbation law trial {trial} (sign {sign}, target {target})",
        )


# ---------------------------------------------------------------------------
# suite: the admissibility table (table1)
# ---------------------------------------------------------------------------

# independent statement of the table rows: first constrained index and
# torsion kinds, spelled out literally for the cross-check
_TABLE1_EXPECTED = {
    (MILNOR, MILNOR): (2, ("delta_two", "tau")),
    (MILNOR, WITT): (2, ("delta_two", "tau")),
    (MILNOR, MW): (2, ("delta_two", "tau")),
    (WITT, MILNOR): (1, ("two",)),
    (WITT, WITT): (None, ()),
    (WITT, MW): (1, ("h",)),
    (MW, MILNOR): (2, ("delta_two",)),
    (MW, WITT): (None, ()),
    (MW, MW): (2, ("delta_h",)),
}


def _expected_subgroup(field, target, deg, n, l, start, kinds):
    out = []
    for a in theory_elements(field, target, deg):
        if theory_group_is_trivial(field, target, deg) and not a.is_zero_in(target):
            continue
        if start is not None and l >= start:
            ok = True
            for kind in kinds:
                if kind == "delta_two":
                    ok = ok and (n % 2 == 0 or a.add(a).is_zero_in(target))
                elif kind == "two":
                    ok = ok and a.add(a).is_zero_in(target)
                elif kind == "delta_h":
                    ok = ok and (n % 2 == 0 or a.h_mul().is_zero_in(target))
                elif kind == "h":
                    ok = ok and a.h_mul().is_zero_in(target)
                elif kind == "tau":
                    ok = ok and minus_one_power(field, n - 1).mul(a).is_zero_in(target)
            if not ok:
                continue
        out.append(a)
    return out


@_suite("table1", "executable admissibility table vs directly enumerated coefficient groups")
def table1(rep, config, rng, oracle):
    field = oracle.base
    L = 4
    for (src, tgt), (start, kinds) in _TABLE1_EXPECTED.items():
        for n in (1, 2):
            for m in (0, 1, 2, 3):
                for l in range(L + 1):
                    deg = m - n * l
                    expected = {
                        a.project(tgt)
                        for a in _expected_subgroup(field, tgt, deg, n, l, start, kinds)
                    }
                    accepted = set()
                    for a in theory_elements(field, tgt, deg):
                        coeffs = [
                            a if k == l else MWElem.zero(field, m - n * k)
                            for k in range(L + 1)
                        ]
                        if admissible(src, tgt, n, m, field, coeffs):
                            accepted.add(a.project(tgt))
                    rep.check(
                        accepted == expected,
                        f"row {src}->{tgt} (n={n}, m={m}, l={l}): accepted {accepted} != expected {expected}",
                    )

    # quotient-source rows: admissible sequences must be insensitive to
    # perturbations inside the quotiented ideal (h-multiples for a Witt
    # source, eta-multiples for a Milnor source)
    if isinstance(config.field, RatFuncField):
        rf = config.field
        sampler = unit_sampler(rf, rng, max_degree=2)
        for trial in range(min(config.trials, 10)):
            n = rng.choice([1, 2])
            m = rng.choice([2, 3])
            seq_w = sample_sequence(field, WITT, MW, n, m, 3, rng)
            x = sample_presentation(rf, n, rng, r_max=1, s_max=1, sampler=sampler)
            abar = tuple(sampler() for _ in range(n))
            squared = (abar[0].mul(abar[0]),) + abar[1:]
            x_h = x.add(SymExpr.bracket(*squared).scale(rng.choice([1, -1])))
            rep.equal(
                oracle, seq_w.apply(x, oracle), seq_w.apply(x_h, oracle), MW, m,
                f"Witt-source sequence sees an h-multiple (trial {trial})",
            )
            tgt = rng.choice([MILNOR, MOD2, MW])
            if (MILNOR, tgt) not in ADMISSIBILITY_RULES:
                tgt = MILNOR
            seq_m = sample_sequence(field, MILNOR, tgt, n, m, 3, rng)
            eta_units = tuple(sampler() for _ in range(n + 1))
            eta_term = SymExpr(rf, {(1, eta_units): rng.choice([1, -1])})
            rep.equal(
                oracle,
                seq_m.apply(x, oracle),
                seq_m.apply(x.add(eta_term), oracle),
                tgt,
                m,
                f"Milnor-source sequence sees an eta-multiple (trial {trial}, {tgt})",
            )

        # rejection audit: rejected sequences violate an identity or act as zero.
        # The witnesses sit at the first places P of degree 2 and 3: the
        # surviving h-multiples there are multiples of [tbar^2], whose
        # order in kappa(P)^* is 2 and 13 over F_3.  At the cubic place
        # tbar^2 lies outside F_q, so its order exceeds 2 for every q,
        # and together they catch every nonzero rank (-2..2) of a
        # rejected coefficient
        witnesses = [
            witt_generator(1, (rf.t_unit(), rf.from_poly(first_monic_irreducible(field, d))), 0)
            for d in (2, 3)
        ]
        audited = 0
        for trial in range(200):
            if audited >= min(config.trials, 12):
                break
            n = rng.choice([1])
            m = rng.choice([2, 3])
            l = 2
            deg = m - n * l
            allowed = allowed_coefficients(field, MW, MW, n, l, deg)
            cands = [a for a in theory_elements(field, MW, deg) if a not in allowed]
            if not cands:
                continue
            bad = rng.choice(cands)
            coeffs = [
                bad if k == l else MWElem.zero(field, m - n * k) for k in range(l + 1)
            ]
            rep.check(
                not admissible(MW, MW, n, m, field, coeffs),
                f"sequence with non-torsion a_{l} accepted (trial {trial})",
            )
            seq = OpSequence(MW, MW, n, m, field, coeffs)
            gens = witnesses + [
                g
                for kind, g in relation_generators(
                    rf, n, d_max=1, sampler=sampler, rng=rng, per_family=3
                )
                if g.max_term_size() <= 5
            ]
            probes = [SymExpr.zero(rf)] + [
                sample_presentation(rf, n, rng, r_max=2, s_max=0, sampler=sampler)
                for _ in range(2)
            ]
            violated, values = _perturbation_search(
                oracle, lambda x: seq.evaluate(x, oracle), probes, gens, MW, m
            )
            acts_zero = all(oracle.is_zero(v, MW, m) for v in values)
            rep.check(
                violated or acts_zero,
                f"rejected sequence neither violates an identity nor acts as zero (trial {trial})",
            )
            audited += 1
        rep.note(f"rejection audit over {audited} non-admissible sequences")
