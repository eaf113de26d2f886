import ast
import random
from collections import Counter
from pathlib import Path

import pytest

from mwk import suites
from mwk.errors import FieldMismatch, MWKError
from mwk.exprtext import parse_field_spec
from mwk.fields import ff_build, ff_build_q, rat_func_field
from mwk.model import MW, model_elements, theory_torsion_test
from mwk.operations import OpSequence, oracle_for
from mwk.suites import SUITES, Report, SuiteConfig, run_suite
from mwk.symbols import SymExpr, relation_generators, unit_sampler

F3 = ff_build(3, 1)
RF3 = rat_func_field(F3)

SMOKE = [
    ("lemma32", F3, {}),
    ("lemma32", RF3, dict(trials=30)),
    ("relations34", F3, dict(trials=40, d_max=2)),
    ("relations34", RF3, dict(trials=25, d_max=2)),
    ("lambda-wd", RF3, dict(trials=10, n=1)),
    ("lambda-wd", RF3, dict(trials=8, n=2)),
    ("prop64", F3, dict(trials=25)),
    ("prop64", RF3, dict(trials=10)),
    ("shift73", RF3, dict(trials=10, trunc=3)),
    ("lemma75", RF3, dict(trials=6, trunc=3)),
    ("prop83", F3, dict(trials=30)),
    ("prop83", RF3, dict(trials=10, trunc=5)),
    ("thm84", F3, dict(trunc=4)),
    ("seq37", RF3, dict(trials=15)),
    ("prop36", RF3, dict(trials=15)),
    ("lemma91", RF3, dict(trials=8, trunc=3)),
    ("lemma93", RF3, dict(trials=6, trunc=3)),
    ("table1", RF3, dict(trials=4)),
]


@pytest.mark.parametrize("suite_id,field,kw", SMOKE, ids=[f"{s}-{i}" for i, (s, f, kw) in enumerate(SMOKE)])
def test_suite_smoke(suite_id, field, kw):
    config = SuiteConfig(field=field, seed=11, **kw)
    report = run_suite(suite_id, config)
    payload = report.to_json()
    assert payload["passed"], payload["failures"][:5]
    assert payload["trials"] > 0
    assert payload["paper_anchor"]


def test_registry_complete():
    assert set(SUITES) == {
        "lemma32",
        "relations34",
        "lambda-wd",
        "prop64",
        "shift73",
        "lemma75",
        "prop83",
        "thm84",
        "seq37",
        "prop36",
        "lemma91",
        "lemma93",
        "table1",
    }


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nope", SuiteConfig(field=F3))


def test_unknown_suite_is_an_mwk_error():
    with pytest.raises(MWKError):
        run_suite("nope", SuiteConfig(field=F3))


def test_thm84_reads_through_the_public_g_map(monkeypatch):
    calls = [0]
    g_map = OpSequence.g_map

    def counting_g_map(self, minus_first=True):
        calls[0] += 1
        return g_map(self, minus_first)

    monkeypatch.setattr(OpSequence, "g_map", counting_g_map)
    payload = run_suite("thm84", SuiteConfig(field=F3, trunc=4, seed=11)).to_json()
    assert payload["passed"], payload["failures"]
    assert payload["trials"] > 0
    # one roundtrip check per tuple, each reading both orders
    assert calls[0] == 2 * payload["trials"]


def test_thm84_sees_a_wrong_shift_twist(monkeypatch):
    # a shift of the other sign is shift with its twist parity flipped;
    # thm84 reads the shift chain on a sample of tuples and must fail.
    # Over F_9, where -1 is a square, [-1]^n kills every coefficient
    # thm84 admits from index 2 on, so the wrong twist cannot show there
    shift = OpSequence.shift
    monkeypatch.setattr(OpSequence, "shift", lambda self, sign: shift(self, -sign))
    payload = run_suite("thm84", SuiteConfig(field=F3)).to_json()
    assert not payload["passed"] and payload["failure_count"] > 0
    assert run_suite("thm84", SuiteConfig(field=ff_build(3, 2))).to_json()["passed"]


def test_reports_deterministic():
    config = SuiteConfig(field=RF3, trials=10, seed=21)
    a = run_suite("prop36", config).to_json()
    b = run_suite("prop36", SuiteConfig(field=RF3, trials=10, seed=21)).to_json()
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_lemma32_exhaustive_branch_follows_the_size_bound(monkeypatch):
    F5 = ff_build(5, 1)  # (q-1)^2 = 16 unit pairs

    def notes():
        return run_suite("lemma32", SuiteConfig(field=F5, trials=5, seed=3)).to_json()["notes"]

    monkeypatch.setenv("MWK_SIZE_BOUND", "16")
    assert "exhaustive over 16 unit pairs" in notes()
    monkeypatch.setenv("MWK_SIZE_BOUND", "15")
    assert not any(note.startswith("exhaustive") for note in notes())


def test_report_equal_and_zero_record_through_check():
    oracle = oracle_for(F3)
    rep = Report("primitive", "anchor", SuiteConfig(field=F3))
    one, minus_one = F3.one_unit(), F3.minus_one()
    assert rep.equal(oracle, SymExpr.one(F3), SymExpr.angle(one), MW, 0, "<1> = 1")
    assert rep.zero(oracle, SymExpr.bracket(one), MW, 1, "[1] = 0")
    assert (rep.trials, rep.failures) == (2, [])
    assert not rep.equal(oracle, SymExpr.one(F3), SymExpr.zero(F3), MW, 0, "1 = 0")
    assert (rep.trials, rep.failures) == (3, ["1 = 0"])
    assert not rep.zero(oracle, SymExpr.bracket(minus_one), MW, 1, "[-1] = 0")
    assert (rep.trials, rep.failures) == (4, ["1 = 0", "[-1] = 0"])
    assert not rep.to_json()["passed"]


def _is_rep_check(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "check"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "rep"
    )


def _is_oracle_call(node):
    # a method of an oracle, or a bare model evaluation (the model oracle
    # spelled out by hand)
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id == "eval_model"
    return (
        isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "oracle"
    )


def test_oracle_backed_checks_go_through_the_report_primitives():
    # rep.equal/rep.zero know the oracle, theory, degree and operands of a
    # check; a bare rep.check(oracle.…) would hide them
    tree = ast.parse(Path(suites.__file__).read_text(encoding="utf-8"))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if _is_rep_check(node)
        and any(_is_oracle_call(sub) for arg in node.args for sub in ast.walk(arg))
    ]
    assert not offenders, f"rep.check wraps an oracle call at suites.py lines {offenders}"


def test_lambda_wd_searches_for_a_violation_where_the_target_is_nonzero(monkeypatch):
    found = []
    search = suites._perturbation_search

    def recording_search(*args):
        result = search(*args)
        found.append(result[0])
        return result

    monkeypatch.setattr(suites, "_perturbation_search", recording_search)
    payload = run_suite("lambda-wd", SuiteConfig(field=RF3, n=1, trials=4, seed=11)).to_json()
    assert payload["passed"], payload["failures"]
    assert found == [True]
    assert not any("skipped" in note for note in payload["notes"])


class _RecordingRng:
    def choice(self, cands):
        self.cands = list(cands)
        return cands[0]


@pytest.mark.parametrize("q", [3, 5, 9])
def test_sample_torsion_coeff_draws_from_the_h_torsion_coefficients(q):
    field = ff_build_q(q)
    rng = _RecordingRng()
    for degree in range(-2, 2):
        suites.sample_torsion_coeff(field, degree, rng)
        want = [a for a in model_elements(field, degree) if theory_torsion_test(a, "h", MW)]
        assert rng.cands == want, degree


@pytest.mark.parametrize("trunc", [3, 8])
def test_every_suite_passes_with_a_check_at_a_small_and_the_default_truncation(trunc):
    for spec in ("3", "9", "5(t)"):
        field = parse_field_spec(spec)
        for suite_id in SUITES:
            config = SuiteConfig(field=field, trials=2, seed=1, trunc=trunc)
            try:
                payload = run_suite(suite_id, config).to_json()
            except FieldMismatch as exc:
                assert "needs a rational function field" in str(exc), (suite_id, spec)
                continue
            assert payload["passed"] and payload["trials"] > 0, (suite_id, spec, payload)


def test_relations34_checks_every_relation_family_within_its_trials(monkeypatch):
    taken = []

    def record(rep, oracle, a, theory, degree, label):
        taken.append((label.split()[0], min(d for d, _ in a.terms), a))

    monkeypatch.setattr(Report, "zero", record)
    for q in (3, 5, 7, 9):
        taken.clear()
        run_suite("relations34", SuiteConfig(field=ff_build_q(q), trials=200))
        kinds = Counter(kind for kind, _, _ in taken)
        assert set(kinds) == {"steinberg", "twisted_tensor", "witt"}, (q, kinds)
        if q > 3:
            assert len(taken) == 200, q
            continue
        # over 3 every family is enumerated in full: the 129 generators, as
        # many per family and eta level as when the families came one by one
        assert Counter((kind, d) for kind, d, _ in taken) == {
            ("steinberg", 1): 1, ("steinberg", 2): 4, ("steinberg", 3): 12,
            ("twisted_tensor", 0): 4, ("twisted_tensor", 1): 16, ("twisted_tensor", 2): 48,
            ("witt", 1): 12, ("witt", 2): 32,
        }
        rng = random.Random(0)
        everything = relation_generators(F3, 1, 3, rng, 20, unit_sampler(F3, rng))
        assert Counter(a for _, _, a in taken) == Counter(g for _, g in everything)
