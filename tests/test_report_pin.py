"""Suite reports pinned against a committed reference.

Every suite runs over 3, 9, 3(t) and 5(t) with trials=5 and seed=0 (thm84
is exhaustive and ignores the trials); its JSON report without `elapsed_s`
must equal the reference, and a suite that rejects a field must still
reject it with the same error.
Refactors keep these reports unchanged, so a difference is a change of
behaviour.  To regenerate the reference after an intended change:

    PYTHONPATH=src python tests/test_report_pin.py > tests/data/suite_reports.json
"""

import json
from pathlib import Path

from mwk.errors import MWKError
from mwk.exprtext import parse_field_spec
from mwk.suites import SUITES, SuiteConfig, run_suite

REFERENCE = Path(__file__).parent / "data" / "suite_reports.json"
FIELDS = ("3", "9", "3(t)", "5(t)")
SUITE_IDS = sorted(SUITES)


def reports():
    out = {}
    for spec in FIELDS:
        field = parse_field_spec(spec)
        for suite in SUITE_IDS:
            try:
                payload = run_suite(suite, SuiteConfig(field=field, trials=5, seed=0)).to_json()
                del payload["elapsed_s"]
            except MWKError as exc:
                payload = {"error": type(exc).__name__, "message": str(exc)}
            out[f"{suite} over {spec}"] = payload
    return out


def dump(data):
    return json.dumps(data, indent=1, sort_keys=True)


def test_reports_match_the_reference():
    want = json.loads(REFERENCE.read_text())
    got = reports()
    assert sorted(got) == sorted(want)
    for key in want:
        assert dump(got[key]) == dump(want[key]), key


if __name__ == "__main__":
    print(dump(reports()))
