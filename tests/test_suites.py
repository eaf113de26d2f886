import pytest

from mwk.fields import ff_build, rat_func_field
from mwk.suites import SUITES, SuiteConfig, run_suite

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


def test_reports_deterministic():
    config = SuiteConfig(field=RF3, trials=10, seed=21)
    a = run_suite("prop36", config).to_json()
    b = run_suite("prop36", SuiteConfig(field=RF3, trials=10, seed=21)).to_json()
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_umbrella_reports():
    from mwk.suites import sequence_checks, structural_checks

    rep = sequence_checks(SuiteConfig(field=RF3, trials=10, seed=31)).to_json()
    assert rep["passed"] and rep["trials"] > 0
    rep = structural_checks(
        SuiteConfig(field=RF3, n=1, m=2, trials=6, trunc=3, seed=31)
    ).to_json()
    assert rep["passed"] and rep["trials"] > 0


def test_lemma32_exhaustive_branch_follows_the_size_bound(monkeypatch):
    F5 = ff_build(5, 1)  # (q-1)^2 = 16 unit pairs

    def notes():
        return run_suite("lemma32", SuiteConfig(field=F5, trials=5, seed=3)).to_json()["notes"]

    monkeypatch.setenv("MWK_SIZE_BOUND", "16")
    assert "exhaustive over 16 unit pairs" in notes()
    monkeypatch.setenv("MWK_SIZE_BOUND", "15")
    assert not any(note.startswith("exhaustive") for note in notes())


def test_merged_report_counts_every_failure():
    from mwk.suites import Report, _merge_reports

    config = SuiteConfig(field=F3, seed=0)

    def failing(name, count):
        part = Report(name, "anchor", config)
        for i in range(count):
            part.check(False, f"case {i}")
        return part

    payload = _merge_reports(
        "merged", "anchor", config, [failing("first", 40), failing("second", 40)]
    ).to_json()
    assert payload["trials"] == 80
    assert payload["failure_count"] == 80
    assert len(payload["failures"]) == 50
    assert payload["failures"][40] == "second: case 0"
    # a part's own JSON keeps only its first 50 failures; the merge keeps all
    payload = _merge_reports("merged", "anchor", config, [failing("only", 60)]).to_json()
    assert payload["failure_count"] == 60
