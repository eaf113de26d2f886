"""Command-line interface: compute groups, evaluate expressions, and run
the verification suites.

Exit codes: 0 when the requested check holds (oracle agreement, zero
failures), 1 on a failed check, 2 on usage or input errors and on a group
comparison whose presentation did not stabilize by --d-max.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import MWKError
from .exprtext import format_field_spec, parse_expr, parse_field_spec
from .fields import RatFuncField, ff_build_q
from .model import eval_model, group_structure_model, snf_oracle
from .suites import SUITES, SuiteConfig, run_suite
from .valuation import canonical_form


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_group(args):
    field = ff_build_q(args.q)
    model = group_structure_model(field, args.n)
    oracle = snf_oracle(field, args.n, args.d_max)
    agree = oracle["final"] == model
    payload = {
        "q": args.q,
        "n": args.n,
        "d_max": args.d_max,
        "model_factors": model,
        "presentation_factors": oracle["factors"],
        "stabilized": oracle["stabilized"],
        "agree": agree,
    }
    _emit(payload, args.json)
    if agree:
        return 0
    if not oracle["stabilized"]:
        # too shallow a truncation: no failed check, just no answer
        print(
            f"inconclusive: presentation not stabilized by --d-max {args.d_max}",
            file=sys.stderr,
        )
        return 2
    print("oracle disagreement", file=sys.stderr)
    return 1


def cmd_eval(args):
    field = parse_field_spec(args.field)
    expr = parse_expr(args.expr, field)
    degree = args.n if args.n is not None else expr.degree(0)
    payload = {"field": format_field_spec(field), "expr": args.expr, "degree": degree}
    if isinstance(field, RatFuncField):
        cf = canonical_form(expr, degree)
        payload["canonical_form"] = cf.to_json()
        payload["zero"] = cf.is_zero()
    else:
        value = eval_model(expr, degree)
        payload["value"] = value.to_json()
        payload["zero"] = value.is_zero()
    _emit(payload, args.json)
    return 0


def cmd_verify(args):
    field = parse_field_spec(args.field)
    config = SuiteConfig(
        field=field,
        n=args.n,
        m=args.m,
        trials=args.trials,
        seed=args.seed,
        trunc=args.trunc,
        d_max=args.d_max,
    )
    report = run_suite(args.suite, config)
    payload = report.to_json()
    if args.json:
        _emit(payload, True)
    else:
        print(f"suite {payload['suite_id']}: {payload['paper_anchor']}")
        print(
            f"field {payload['field']}  trials {payload['trials']}  "
            f"failures {payload['failure_count']}  seed {payload['seed']}  "
            f"elapsed {payload['elapsed_s']}s"
        )
        for note in payload["notes"]:
            print(f"note: {note}")
        for failure in payload["failures"][:10]:
            print(f"FAIL: {failure}")
    return 0 if payload["passed"] else 1


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="mwk",
        description="exact Milnor-Witt K-theory computations over small fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="compare the two group oracles")
    g.add_argument("--q", type=int, required=True, help="prime power")
    g.add_argument("--n", type=int, required=True, help="degree")
    g.add_argument("--d-max", dest="d_max", type=_non_negative, default=3)
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_group)

    e = sub.add_parser("eval", help="evaluate an expression to canonical form")
    e.add_argument("expr")
    e.add_argument("--field", required=True, help='e.g. "3", "3,2", "9", "3(t)"')
    e.add_argument("--n", type=int, default=None, help="degree (inferred if omitted)")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--field", default="3")
    v.add_argument("--n", type=int, default=1)
    v.add_argument("--m", type=int, default=2)
    v.add_argument("--trials", type=_non_negative, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trunc", type=_non_negative, default=8)
    v.add_argument("--d-max", dest="d_max", type=_non_negative, default=3)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    return parser


def _expr_after_dashes(argv):
    """The argv of `mwk eval` with an expression that starts with '-' moved
    behind '--', so that argparse does not take it for an option.  Before
    '--', a token with one leading '-' is the expression unless it is -h or
    the value of --field or --n; no expression starts with '--', so long
    options (and their abbreviations) stay options."""
    args, exprs, i = [], [], 0
    while i < len(argv) and argv[i] != "--":
        token = argv[i]
        if token in ("--field", "--n"):
            args.extend(argv[i : i + 2])
            i += 2
            continue
        if token.startswith("-") and not token.startswith("--") and token != "-h":
            exprs.append(token)
        else:
            args.append(token)
        i += 1
    if not exprs:
        return argv
    return args + ["--"] + exprs + argv[i + 1 :]


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["eval"]:
        argv = ["eval"] + _expr_after_dashes(argv[1:])
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MWKError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
