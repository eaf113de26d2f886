"""`mwk eval --json` answers pinned against a committed reference.

About 150 seeded requests over 3, 9, 3(t), 5(t) and 25(t): degrees -1..4,
eta powers, negative exponents, sums of terms, symbols whose first entry
is a degree-11 polynomial, and one sum that mixes degrees.  Each request's
JSON output (or its exit code and stderr) must equal the reference.
Refactors of the evaluation
path keep these answers unchanged, so a difference is a change of
behaviour.  To regenerate the reference after an intended change:

    PYTHONPATH=src python tests/test_eval_pin.py > tests/data/eval_answers.json
"""

import contextlib
import io
import json
import random
from pathlib import Path

from mwk.cli import main

REFERENCE = Path(__file__).parent / "data" / "eval_answers.json"
FIELDS = ("3", "9", "3(t)", "5(t)", "25(t)")
PER_FIELD = 29
FIXED = (
    ("5(t)", "[t^11+t^2+t+3, t]"),
    ("5(t)", "[t^11+t^2+t+3, t, t+1]"),
    ("5(t)", "[t^11+t^2+t+3, t^-2*(t+1)]"),
    ("5(t)", "[t^11+t^2+t+3, t] - [t, t^11+t^2+t+3]"),
    ("5(t)", "eta*[t^11+t^2+t+3, t, t+1]"),
    ("3(t)", "[t^11+t^2+t+2, t]"),
    ("3(t)", "[t,t] - [t,-1]"),
    ("3", "eta*(2 + eta*[-1])"),
    ("3", "-[2]*[2]"),
    ("5(t)", "0*[t, t+1, t+2]"),
    ("5(t)", "[t, t+1, t+2] + [t, t, t+1, t+2]"),
)


def _poly(rng, q, deg):
    coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
    parts = []
    for i in range(deg, -1, -1):
        c = coeffs[i]
        if c:
            mono = "" if i == 0 else "t" if i == 1 else f"t^{i}"
            if not mono:
                parts.append(str(c))
            else:
                parts.append(mono if c == 1 else f"{c}*{mono}")
    return "(" + "+".join(parts) + ")"


def _unit(rng, spec):
    if spec.endswith("(t)"):
        q = int(spec[:-3])
        factors = []
        if rng.random() < 0.4:
            factors.append(f"t^{rng.choice((-3, -2, -1, 1, 2, 3))}")
        for _ in range(rng.randint(0 if factors else 1, 2)):
            factor = _poly(rng, q, rng.randint(1, 3))
            if rng.random() < 0.3:
                factor += f"^{rng.choice((-2, -1, 2, 3))}"
            factors.append(factor)
        if rng.random() < 0.2:
            factors.insert(0, str(rng.randrange(1, q)))
        return "*".join(factors)
    q = int(spec)
    unit = str(rng.randrange(1, q))
    if rng.random() < 0.3:
        unit += f"*({rng.randrange(1, q)})^-1"
    return unit


def _term(rng, spec, degree):
    eta = rng.choice((0, 0, 1, 2)) if degree < 4 else 0
    size = degree + eta
    while size < 0:
        eta += 1
        size += 1
    parts = []
    if eta:
        parts.append("eta" if eta == 1 else f"eta^{eta}")
    if size:
        parts.append("[" + ", ".join(_unit(rng, spec) for _ in range(size)) + "]")
    coeff = rng.choice(("", "-", "2*", "-3*"))
    return coeff + ("*".join(parts) if parts else "1")


def requests():
    rng = random.Random("eval-pin")
    out = []
    for spec in FIELDS:
        for i in range(PER_FIELD):
            degree = -1 + i % 6
            terms = [_term(rng, spec, degree) for _ in range(rng.randint(1, 2))]
            text = terms[0]
            for term in terms[1:]:
                text += (" - " + term[1:]) if term.startswith("-") else (" + " + term)
            out.append((spec, text))
    return out + list(FIXED)


def answer(spec, text):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["eval", "--field", spec, "--json", "--", text])
    if code:
        return {"exit": code, "stderr": stderr.getvalue().strip()}
    return json.loads(stdout.getvalue())


def answers():
    return {f"{text} over {spec}": answer(spec, text) for spec, text in requests()}


def dump(data):
    return json.dumps(data, indent=1, sort_keys=True)


def test_answers_match_the_reference():
    want = json.loads(REFERENCE.read_text())
    got = answers()
    assert sorted(got) == sorted(want)
    for key in want:
        assert dump(got[key]) == dump(want[key]), key


if __name__ == "__main__":
    print(dump(answers()))
