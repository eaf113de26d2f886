import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mwk.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_command(capsys):
    code, out = run(capsys, "group", "--q", "3", "--n", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["model_factors"] == [2, 0]
    assert payload["agree"]
    code, out = run(capsys, "group", "--q", "3", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["model_factors"] == []
    code, out = run(capsys, "group", "--q", "3", "--n", "1", "--d-max", "3", "--json")
    assert code == 0
    assert json.loads(out)["agree"]


def test_eval_command(capsys):
    code, out = run(capsys, "eval", "[2]*[2]", "--field", "3", "--json")
    assert code == 0
    assert json.loads(out)["zero"]
    code, out = run(capsys, "eval", "[t,t] - [t,-1]", "--field", "3(t)", "--json")
    assert code == 0
    assert json.loads(out)["zero"]
    code, out = run(capsys, "eval", "eta*(2 + eta*[-1])", "--field", "3", "--json")
    assert code == 0
    assert json.loads(out)["zero"]
    code, out = run(capsys, "eval", "[t]", "--field", "3(t)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert not payload["zero"]
    assert payload["canonical_form"]["residues"]
    # residue fields of size 25^3 and 5^7, beyond the enumeration bound
    code, out = run(capsys, "eval", "[t^3+t+1, t]", "--field", "25(t)", "--json")
    assert code == 0
    assert "t^3+t+1" in dict(json.loads(out)["canonical_form"]["residues"])
    code, out = run(capsys, "eval", "[(t^7+t+1)^-1, t^4+1]", "--field", "5(t)", "--json")
    assert code == 0
    assert "t^7+t+1" in dict(json.loads(out)["canonical_form"]["residues"])


def test_eval_parse_error_exit_code(capsys):
    code = main(["eval", "[2", "--field", "3"])
    assert code == 2
    # an integer literal that is no encoding of F_9 is an input error
    assert main(["eval", "[t+10]", "--field", "9(t)"]) == 2
    assert main(["eval", "[10]", "--field", "9"]) == 2
    assert main(["eval", "<10^-1>", "--field", "9"]) == 2


def test_eval_has_no_term_size_cap(capsys):
    # every term with three or more entries is zero over F_q(t)
    code, out = run(capsys, "eval", "eta^7*[t+1,t,t,t,t,t,t,t,t]", "--field", "3(t)", "--json")
    assert code == 0
    assert json.loads(out)["zero"]


def test_eval_at_a_place_whose_residue_field_order_has_a_large_prime(capsys):
    # 11^11 - 1 has a prime factor beyond 10,000^2; the residue field at
    # t^11+10*t+10 needs no factorization of it
    from mwk.exprtext import parse_expr, parse_field_spec
    from mwk.fields import Place
    from mwk.model import eval_model
    from mwk.valuation import residue, specialize

    code, out = run(capsys, "eval", "[t^11+10*t+10, t]", "--field", "11(t)", "--json")
    assert code == 0
    cf = json.loads(out)["canonical_form"]
    # the symbolic residue/specialization path, evaluated in the model
    rf = parse_field_spec("11(t)")
    expr = parse_expr("[t^11+10*t+10, t]", rf)
    t_place = Place(rf, rf.var_poly())
    assert cf["base"] == eval_model(specialize(expr, t_place), 2).to_json()
    values = {str(p): eval_model(residue(expr, p), 1) for p in expr.support_places()}
    assert [name for name, _ in cf["residues"]] == ["t", "t^11+10*t+10"]
    assert cf["residues"] == [[name, values[name].to_json()] for name, _ in cf["residues"]]


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["verify", "--suite", suite, "--field", field, "--n", "0", "--trials", "2"]
            for suite in (
                "lambda-wd", "prop64", "prop83", "shift73", "lemma75", "lemma91", "lemma93"
            )
            for field in ("3", "3(t)")
        ),
        *(
            ["verify", "--suite", suite, "--field", field, "--trunc", "-1", "--trials", "2"]
            for suite in ("shift73", "lemma91", "lemma93")
            for field in ("3", "3(t)")
        ),
        ["verify", "--suite", "relations34", "--d-max", "-1", "--trials", "2"],
        ["verify", "--suite", "prop83", "--field", "3", "--trials", "-3"],
        ["group", "--q", "3", "--n", "1", "--d-max", "-1"],
        ["group", "--q", "3", "--n", "-1"],
    ],
    ids=" ".join,
)
def test_out_of_range_arguments_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    assert code == 2
    assert "agree" not in capsys.readouterr().out


def outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "expr, field",
    [("-[2]", "3"), ("-1*[2]", "3"), ("-h*[2]", "3"), ("-eps*[2]", "3"), ("-[t+1, t]", "3(t)")],
)
def test_eval_expression_may_start_with_minus(capsys, expr, field):
    # the grammar allows ['-'] term; without '--' it must read the same
    want = outcome(capsys, ["eval", "--field", field, "--", expr])
    assert want[0] == 0, want
    assert outcome(capsys, ["eval", expr, "--field", field]) == want
    assert outcome(capsys, ["eval", "--field", field, expr]) == want
    assert outcome(capsys, ["eval", "--json", expr, "--field", field]) == outcome(
        capsys, ["eval", "--json", "--field", field, "--", expr]
    )


def test_eval_options_stay_options_beside_a_leading_minus(capsys):
    code, out, _ = outcome(capsys, ["eval", "-h"])
    assert code == 0 and out.startswith("usage: mwk eval")
    want = outcome(capsys, ["eval", "--json", "--n", "1", "--field", "3", "--", "-[2]"])
    assert want[0] == 0, want
    for argv in (
        ["-[2]", "--n=1", "--field=3", "--json"],
        ["--n", "1", "-[2]", "--fi", "3", "--js"],  # abbreviated long options
    ):
        assert outcome(capsys, ["eval", *argv]) == want, argv


@pytest.mark.parametrize(
    "q, n, d_max",
    [(3, n, 0) for n in range(4)] + [(5, 0, 1), (5, 1, 1), (3, 0, 1), (3, 1, 1)],
)
def test_group_too_shallow_is_inconclusive(capsys, q, n, d_max):
    argv = ["group", "--q", str(q), "--n", str(n), "--d-max", str(d_max), "--json"]
    code, out, err = outcome(capsys, argv)
    payload = json.loads(out)
    assert code == 2 and not payload["agree"] and not payload["stabilized"]
    assert err == f"inconclusive: presentation not stabilized by --d-max {d_max}\n"


def test_group_disagreement_at_a_stabilized_depth_exits_1(capsys, monkeypatch):
    assert outcome(capsys, ["group", "--q", "3", "--n", "0"])[0] == 0
    monkeypatch.setattr("mwk.cli.group_structure_model", lambda field, n: [4, 0])
    code, out, err = outcome(capsys, ["group", "--q", "3", "--n", "0", "--json"])
    assert code == 1 and json.loads(out)["stabilized"]
    assert err == "oracle disagreement\n"


def test_eval_output_is_independent_of_hash_seed():
    # factoring and the residue-field logarithms follow no hash order
    text = "[(t^3+t+1)*(t^3+2*t+1)*(t^2+3)^2*(t+4)^2, t^4+1]"
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "mwk.cli", "eval", text, "--field", "25(t)", "--json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["canonical_form"]["residues"]) >= 4


def test_verify_command(capsys):
    code, out = run(
        capsys, "verify", "--suite", "lemma32", "--field", "3", "--trials", "50", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["failure_count"] == 0
    assert payload["paper_anchor"]
    assert payload["seed"] == 0


def test_verify_without_a_check_does_not_pass(capsys):
    argv = ["verify", "--suite", "prop83", "--field", "3", "--trials", "0", "--json"]
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    assert code == 1 and payload["trials"] == 0 and not payload["passed"]
    assert payload["failure_count"] == 0 and "no check ran" in payload["notes"]


def test_verify_with_no_trials_still_passes_an_exhaustive_audit(capsys):
    # table1's audit enumerates the coefficient groups whatever --trials says
    argv = ["verify", "--suite", "table1", "--field", "5", "--trials", "0", "--json"]
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    assert code == 0 and payload["passed"] and payload["trials"] > 0
    assert "no check ran" not in payload["notes"]


def test_verify_deterministic_given_seed(capsys):
    args = ["verify", "--suite", "relations34", "--field", "3", "--trials", "30",
            "--seed", "9", "--json"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("elapsed_s"), p2.pop("elapsed_s")
    assert p1 == p2 and code1 == code2 == 0


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])


def test_verify_wrong_field_kind_is_a_clean_error(capsys):
    code = main(["verify", "--suite", "seq37", "--field", "3", "--trials", "5"])
    assert code == 2
    assert "FieldMismatch" in capsys.readouterr().err


MALFORMED_FIELD_SPECS = ["3(s)", "", "x", "3,", "3,2,1", "3(t)(t)", "(t)"]


@pytest.mark.parametrize("command", ["eval", "verify"])
@pytest.mark.parametrize("spec", MALFORMED_FIELD_SPECS)
def test_malformed_field_spec_exits_2(capsys, command, spec):
    if command == "eval":
        argv = ["eval", "[1]", "--field", spec]
    else:
        argv = ["verify", "--suite", "lemma32", "--field", spec, "--trials", "2"]
    assert main(argv) == 2
    assert f"error: ParseError: malformed field spec {spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["3(t)", "5(t)"])
def test_lambda_wd_skips_a_negative_control_whose_target_is_zero(capsys, spec):
    # K^MW_6(F_q(t)) = 0, so no perturbation can witness the violation
    argv = ["verify", "--suite", "lambda-wd", "--field", spec, "--n", "3", "--trials", "6"]
    code, out = run(capsys, *argv)
    assert code == 0, out
    assert f"note: negative control: K^MW_6({spec}) = 0, violation search skipped" in out


SUITE_FIELDS = {
    "lemma32": "3",
    "relations34": "3",
    "lambda-wd": "3(t)",
    "prop64": "3",
    "shift73": "3(t)",
    "lemma75": "3",
    "prop83": "3",
    "thm84": "3",
    "seq37": "3(t)",
    "prop36": "3(t)",
    "lemma91": "3",
    "lemma93": "3",
    "table1": "3(t)",
}


def test_every_registered_suite_runs_through_the_cli(capsys):
    import json as _json

    for suite, field in SUITE_FIELDS.items():
        args = [
            "verify", "--suite", suite, "--field", field,
            "--trials", "6", "--trunc", "4", "--seed", "2", "--json",
        ]
        code = main(args)
        payload = _json.loads(capsys.readouterr().out)
        assert code == 0, (suite, payload["failures"][:3])
        assert payload["suite_id"] == suite
