from __future__ import annotations

import json
import random
import shlex
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from resym import (QQ, DifferentialForm, ExtensionField, LaurentPoly, ParseError,
                   PolyQ, RationalFunction, parse_expression,
                   parse_extension_modulus, parse_form, parse_laurent,
                   parse_rational_function, render_form, render_laurent)
from resym.cli import main
from resym.parser import MAX_NESTING
from resym.verify import rand_fraction, rand_laurent, rand_rational_function


def test_parse_form_example():
    form = parse_form("t1^-1*t2^-1 d(t1) ^ d(t2)", 2)
    assert form.f0 == LaurentPoly.monomial(2, (-1, -1))
    assert form.args == (LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2))


def test_parse_rational_function_example():
    rf = parse_rational_function("1/(t^2+1)")
    assert rf == RationalFunction(PolyQ.one(), PolyQ((1, 0, 1)))


def test_rational_powers_match_written_out_products():
    assert parse_rational_function("(t+1)^-12") == \
        parse_rational_function("1/(" + "*".join(["(t+1)"] * 12) + ")")
    assert parse_rational_function("(t/2)^-3") == parse_rational_function("1/((t/2)*(t/2)*(t/2))")
    assert parse_rational_function("(t/2)^-3") == RationalFunction(PolyQ.constant(8), PolyQ((0, 0, 0, 1)))
    assert parse_rational_function("((t^2+1)/(t-3))^3") == \
        parse_rational_function("(t^2+1)*(t^2+1)*(t^2+1)/((t-3)*(t-3)*(t-3))")
    assert parse_rational_function("(t-1)^0") == RationalFunction(PolyQ.one())
    with pytest.raises(ZeroDivisionError):
        parse_rational_function("0^-1")


def _random_rf(rng: random.Random, depth: int):
    """(text, sympy value, whether the text divides by zero) for a random
    expression in t: literals, t - a, the four operations and powers -3..3,
    nested `depth` levels.  Every operand is parenthesized, and so is a
    fraction literal, since "t/3/2" reads "3/2" as one literal."""
    import sympy
    t = sympy.Symbol("t")
    if depth == 0 or rng.random() < 0.25:
        pick = rng.randrange(4)
        if pick == 0:
            return "t", t, False
        if pick == 1:
            k = rng.randint(0, 4)
            return str(k), sympy.Integer(k), False
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        value = sympy.Rational(q.numerator, q.denominator)
        if pick == 2:
            return f"({q})", value, False
        return (f"(t - {q})" if q >= 0 else f"(t + {-q})"), t - value, False
    if rng.random() < 0.25:
        text, value, bad = _random_rf(rng, depth - 1)
        k = rng.randint(-3, 3)
        bad = bad or (k < 0 and sympy.cancel(value) == 0)
        return f"({text})^{k}", (value ** k if not bad else value), bad
    (lt, lv, lbad), (rt, rv, rbad) = _random_rf(rng, depth - 1), _random_rf(rng, depth - 1)
    op = rng.choice("+-*/")
    bad = lbad or rbad or (op == "/" and sympy.cancel(rv) == 0)
    if bad:
        value = lv
    else:
        value = {"+": lv + rv, "-": lv - rv, "*": lv * rv, "/": lv / rv}[op]
    return f"({lt}) {op} ({rt})", value, bad


def test_parsed_quotients_match_sympy_cancel():
    """Seeded random texts with + - * /, negative powers and nesting: the
    parsed function is sympy.cancel of the same expression with a monic
    denominator, and a text that divides by zero is a ZeroDivisionError."""
    import sympy
    t = sympy.Symbol("t")
    rng = random.Random(1776)
    checked = refused = 0
    for _ in range(150):
        text, value, bad = _random_rf(rng, rng.randint(1, 4))
        if bad:
            refused += 1
            with pytest.raises(ZeroDivisionError):
                parse_rational_function(text)
            continue
        checked += 1
        num, den = (sympy.Poly(part, t, domain="QQ")
                    for part in sympy.fraction(sympy.cancel(value)))
        lead = den.LC()
        want = [[Fraction(int(c.p), int(c.q)) for c in reversed((part * (1 / lead)).all_coeffs())]
                for part in (num, den)]
        rf = parse_rational_function(text)
        assert [list(rf.num.coeffs) or [0], list(rf.den.coeffs)] == want, text
    assert checked >= 120 and refused >= 3


def test_division_by_zero_keeps_its_kind_on_both_doors(tmp_path, capsys):
    cases = {"1/0": "ParseError", "0^-1": "ZeroDivisionError",
             "1/(t-t)": "ZeroDivisionError", "(t-t)^-2": "ZeroDivisionError"}
    for text, kind in cases.items():
        code, (payload,) = run_cli(capsys, "global-sum", text)
        assert code == 1 and payload["kind"] == kind
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps({"op": "global-sum", "function": text}) for text in cases),
                    encoding="utf-8")
    code, payloads = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and [p["kind"] for p in payloads] == list(cases.values())


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_laurent("t1^^2", 1)
    assert err.value.offset == 3


def test_parse_extension_elements():
    from fractions import Fraction
    field = ExtensionField(PolyQ((1, 0, 1)))
    poly = parse_laurent("3/2*t1^-2*t2^3 + (1+x)", 2, field)
    assert poly.coefficient((-2, 3)) == field.element((Fraction(3, 2),))
    assert poly.coefficient((0, 0)) == field.element((1, 1))


def test_parse_expression_dispatch():
    assert isinstance(parse_expression("t^-1 d(t)"), DifferentialForm)
    assert isinstance(parse_expression("1/(t^2+1)"), RationalFunction)
    assert isinstance(parse_expression("3/2*t^2 + t^-1"), LaurentPoly)


def test_modulus_parser():
    assert parse_extension_modulus("x^2+1") == PolyQ((1, 0, 1))
    assert parse_extension_modulus("x^3-x-2") == PolyQ((-2, -1, 0, 1))


def _rand_ext_laurent(rng, dim, field):
    poly = rand_laurent(rng, dim, field, terms=rng.randint(1, 3))
    exps = tuple(rng.randint(-3, 3) for _ in range(dim))
    coeff = field.element((rand_fraction(rng), rand_fraction(rng, nonzero=True)))
    return poly + LaurentPoly(dim, field, {exps: coeff})


def test_roundtrip_corpus():
    rng = random.Random(55)
    field = ExtensionField(PolyQ((1, 0, 1)))
    count = 0
    for _ in range(20):
        for dim in (1, 2):
            poly = rand_laurent(rng, dim, terms=3)
            assert parse_laurent(render_laurent(poly), dim) == poly
            count += 1
    for _ in range(10):
        rf = rand_rational_function(rng)
        assert parse_rational_function(rf.render()) == rf
        count += 1
    for _ in range(10):
        dim = rng.choice([1, 2])
        form = DifferentialForm(rand_laurent(rng, dim),
                                [rand_laurent(rng, dim) for _ in range(dim)])
        assert parse_form(render_form(form), dim) == form
        count += 1
    for dim in (3, 4):
        for _ in range(10):
            form = DifferentialForm(rand_laurent(rng, dim, terms=rng.randint(1, 4)),
                                    [rand_laurent(rng, dim, terms=rng.randint(1, 3))
                                     for _ in range(dim)])
            assert parse_form(render_form(form), dim) == form
            count += 1
    for dim in (1, 2, 3, 4):
        for _ in range(5):
            poly = _rand_ext_laurent(rng, dim, field)
            assert parse_laurent(render_laurent(poly), dim, field) == poly
            form = DifferentialForm(_rand_ext_laurent(rng, dim, field),
                                    [_rand_ext_laurent(rng, dim, field) for _ in range(dim)])
            assert parse_form(render_form(form), dim, field) == form
            count += 2
    ext_poly = LaurentPoly(1, field, {(-2,): field.element((1, 1)),
                                      (0,): field.element((0, 3))})
    assert parse_laurent(render_laurent(ext_poly), 1, field) == ext_poly
    count += 1
    assert count >= 110


def test_non_ascii_input_fails_at_its_character_offset(capsys):
    """Literals and exponents are ASCII digits; another digit, such as a
    superscript, is refused where it stands instead of reaching int().
    Offsets count characters, not UTF-8 bytes."""
    for text, offset in (("t^\u00b2 d(t)", 2), ("\u00b2*t^-1 d(t)", 0),
                         ("t^-1*2\u00b2 d(t)", 6), ("t\u00b2 d(t)", 0),
                         ("t^\u0663 d(t)", 2), ("\u00a0\u00a0\u00e9 d(t)", 2)):
        with pytest.raises(ParseError) as err:
            parse_form(text, 1)
        assert err.value.offset == offset
        code, (payload,) = run_cli(capsys, "res", text)
        assert code == 1 and payload["kind"] == "ParseError" and payload["offset"] == offset
    code, (payload,) = run_cli(capsys, "expand", "1/(t^2+1)", "--place", "t^\u00b2+1")
    assert code == 1 and payload["kind"] == "ParseError" and payload["offset"] == 2
    with pytest.raises(ParseError) as err:
        parse_extension_modulus("x^\u00b2+1")
    assert err.value.offset == 2


@pytest.mark.parametrize("text, n, ext, terms", [
    ("3/2*t1^-1*t2^-2*t3 - t1*t3^2 d(t1 + 2*t2^2) ^ d(t2 - t1*t3) ^ d(t3 + t1^-1*t2)",
     3, None, 8),
    ("(1+x)*t1^-1*t2^-1*t3^-1*t4^-1 - (2*x)*t4 d(t1 + (x)*t2^2) ^ d(t2 - 3*t1*t3)"
     " ^ d(t3^2 + (1-x)^-1*t4) ^ d(t4 - t1^-1*t2*(x)^3)", 4, "x^2+1", 10),
])
def test_parse_form_builds_few_laurent_polys(monkeypatch, text, n, ext, terms):
    """At most three LaurentPolys per term; the parser builds one per sum."""
    field = ExtensionField(parse_extension_modulus(ext)) if ext else QQ
    built = 0
    init = LaurentPoly.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(LaurentPoly, "__init__", counting)
    form = parse_form(text, n, field)
    monkeypatch.undo()
    assert sum(len(g.coeffs) for g in (form.f0, *form.args)) == terms
    assert built <= 3 * terms
    assert built == n + 1


# -- CLI ------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_cli_res(capsys):
    code, (payload,) = run_cli(capsys, "res", "--n", "1", "t^-1 d(t)")
    assert code == 0 and payload == {"value": "1"}


def test_cli_res_two_vars_inferred(capsys):
    code, (payload,) = run_cli(capsys, "res", "t1^-1*t2^-1 d(t1) ^ d(t2)")
    assert code == 0 and payload == {"value": "1"}


def test_cli_res_extension(capsys):
    code, (payload,) = run_cli(capsys, "res", "--n", "1", "--ext", "x^2+1", "t^-1 d(t)")
    assert code == 0 and payload == {"value": "2"}


def test_cli_res_error(capsys):
    code, (payload,) = run_cli(capsys, "res", "--n", "1", "t^^1 d(t)")
    assert code == 1 and "error" in payload
    assert payload["kind"] == "ParseError" and payload["offset"] == 2
    assert "line" not in payload
    for n in ("0", "-1"):
        code, (payload,) = run_cli(capsys, "res", "--n", n, "t^-1 d(t)")
        assert code == 1 and payload["kind"] == "ValueError"


def test_cli_zero_to_a_negative_power_is_a_division_by_zero(tmp_path, capsys):
    cases = [("0^-1*t^-1 d(t)", None), ("(0)^-1*t^-1 d(t)", None),
             ("(0^-1)*t^-1 d(t)", "x^2+1"), ("0^-2*t^-1 d(t)", "x^2+1"),
             ("(x-x)^-3*t^-1 d(t)", "x^2+1")]
    for form, ext in cases:
        argv = ["res", form] + (["--ext", ext] if ext else [])
        code, (payload,) = run_cli(capsys, *argv)
        assert code == 1 and payload["kind"] == "ZeroDivisionError" and "error" in payload
    lines = [{"op": "res", "form": form, **({"ext": ext} if ext else {})} for form, ext in cases]
    lines.append({"op": "res", "form": "t^-1 d(t)", "ext": "x^2+1"})
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(t) for t in lines), encoding="utf-8")
    code, payloads = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and len(payloads) == len(lines)
    for number, (task, payload) in enumerate(zip(lines, payloads[:-1]), 1):
        assert payload == dict(task, error=payload["error"], kind="ZeroDivisionError",
                               line=number)
    assert payloads[-1]["result"] == "2"


def test_cli_trace(capsys):
    op = [{"coeff": "3/2", "shift": [0], "window": [[0, 4]]}]
    code, (payload,) = run_cli(capsys, "trace", "--n", "1", json.dumps(op))
    assert code == 0 and payload == {"value": "6"}


def test_cli_trace_malformed_operator_is_error(tmp_path, capsys):
    code, (payload,) = run_cli(capsys, "trace", "--n", "1", "null")
    assert code == 1 and "error" in payload
    assert payload["kind"] == "ValueError" and "offset" not in payload
    code, (payload,) = run_cli(capsys, "trace", "--n", "1", "[{")
    assert code == 1 and payload["kind"] == "JSONDecodeError"
    # an object is no operator, and an entry names its missing field
    no_window = [{"coeff": "1", "shift": [0]}]
    for bad, named in (({}, "list"), ({"coeff": "1"}, "list"), (no_window, "'window'")):
        code, (payload,) = run_cli(capsys, "trace", "--n", "1", json.dumps(bad))
        assert code == 1 and payload["kind"] == "ValueError" and named in payload["error"]
    lines = [{"op": "trace", "operator": bad, "n": 1} for bad in ({}, {"coeff": "1"}, no_window)]
    lines.append({"op": "trace", "operator": [{"coeff": "1", "shift": [0], "window": [[0, 3]]}]})
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(t) for t in lines), encoding="utf-8")
    code, payloads = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and len(payloads) == 4
    for number, (task, payload) in enumerate(zip(lines, payloads[:-1]), 1):
        assert payload == dict(task, error=payload["error"], kind="ValueError", line=number)
    assert "'window'" in payloads[2]["error"] and payloads[-1]["result"] == "3"


def test_cli_trace_refuses_non_integer_bounds(tmp_path, capsys):
    bad_ops = [[{"coeff": "1", "shift": [0], "window": [[0, 2.5]]}],
               [{"coeff": "1", "shift": [True], "window": [[0, "3"]]}],
               [{"coeff": "1", "shift": [0.9], "window": [[0, 3]]}],
               [{"coeff": "1", "shift": [0], "window": [["3", 5]]}]]
    for op in bad_ops:
        code, (payload,) = run_cli(capsys, "trace", "--n", "1", json.dumps(op))
        assert code == 1 and payload["kind"] == "ValueError" and "error" in payload
    lines = [{"op": "trace", "operator": op, "n": 1} for op in bad_ops]
    lines.append({"op": "trace", "operator": [{"coeff": "1", "shift": [0], "window": [[0, 3]]}]})
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(t) for t in lines), encoding="utf-8")
    code, payloads = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and len(payloads) == 5
    for number, (task, payload) in enumerate(zip(lines, payloads[:-1]), 1):
        assert payload == dict(task, error=payload["error"], kind="ValueError", line=number)
    assert payloads[-1]["result"] == "3"


def test_cli_trace_infers_n_from_the_shifts(tmp_path, capsys):
    # the box [0,2) x [0,3) on the identity shift has trace 6; times 1/2
    op = [{"coeff": "1/2", "shift": [0, 0], "window": [[0, 2], [0, 3]]}]
    code, (payload,) = run_cli(capsys, "trace", json.dumps(op))
    assert code == 0 and payload == {"value": "3"}
    path = tmp_path / "tasks.jsonl"
    path.write_text(json.dumps({"op": "trace", "operator": op}), encoding="utf-8")
    code, (payload,) = run_cli(capsys, "--json-lines", str(path))
    assert code == 0 and payload["result"] == "3"
    code, (payload,) = run_cli(capsys, "trace", "--n", "1", json.dumps(op))
    assert code == 1 and payload["kind"] == "DimensionMismatch"


def test_cli_trace_refusal(capsys):
    op = [{"coeff": "1", "shift": [0], "window": [["-inf", "inf"]]}]
    code, (payload,) = run_cli(capsys, "trace", "--n", "1", json.dumps(op))
    assert code == 1 and payload["kind"] == "NotProvablyFinitePotent"


def test_cli_expand(capsys):
    code, (payload,) = run_cli(capsys, "expand", "1/t", "--place", "t", "--order", "3")
    assert code == 0
    assert payload["coefficients"]["-1"] == "1"


def test_cli_global_sum(capsys):
    code, (payload,) = run_cli(capsys, "global-sum", "1/t")
    assert code == 0
    assert payload["sum"] == "0"
    assert {e["place"]: e["residue"] for e in payload["places"]} == \
        {"t": "1", "inf": "-1"}


def test_cli_nodal(capsys):
    code, (payload,) = run_cli(capsys, "nodal", "--order", "12")
    assert code == 0 and payload == {"ok": True}


SUITE_CASES = {"axioms": 275, "compare": 197, "global": 41, "nodal": 5}


@pytest.mark.parametrize("suite", SUITE_CASES)
def test_cli_verify_suite(capsys, suite):
    code, (payload,) = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert payload == {"suite": suite, "cases": SUITE_CASES[suite], "failures": []}


def test_cli_verify_exit_code_tracks_failures(capsys, monkeypatch):
    import resym.cli as cli_module
    monkeypatch.setattr(cli_module, "run_suite",
                        lambda name: {"suite": name, "cases": 1, "failures": ["boom"]})
    code, (payload,) = run_cli(capsys, "verify", "--suite", "axioms")
    assert code == 1 and payload["failures"] == ["boom"]


# (command line, batch line with its optional fields omitted, the batch result's
# counterpart in the command line's payload)
FRONT_DOORS = [
    (["res", "t1^-1*t2^-2 d(t1 + t2^2) ^ d(t2)"],
     {"op": "res", "form": "t1^-1*t2^-2 d(t1 + t2^2) ^ d(t2)"}, lambda p: p["value"]),
    (["trace", json.dumps([{"coeff": "2", "shift": [0, 0], "window": [[0, 2], [0, 3]]}])],
     {"op": "trace", "operator": [{"coeff": "2", "shift": [0, 0], "window": [[0, 2], [0, 3]]}]},
     lambda p: p["value"]),
    (["expand", "1/t", "--place", "t"], {"op": "expand", "function": "1/t", "place": "t"},
     lambda p: p),
    (["global-sum", "1/(t^2+1)"], {"op": "global-sum", "function": "1/(t^2+1)"},
     lambda p: p["sum"]),
    (["nodal"], {"op": "nodal"}, lambda p: p["ok"]),
    (["verify"], {"op": "verify"}, lambda p: p),
]


@pytest.mark.parametrize("argv, task, pick", FRONT_DOORS, ids=[t["op"] for _, t, _ in FRONT_DOORS])
def test_cli_and_batch_give_the_same_answer(tmp_path, capsys, monkeypatch, argv, task, pick):
    import resym.cli as cli_module
    # the suite is stubbed: what is compared is the default suite reaching it
    monkeypatch.setattr(cli_module, "run_suite",
                        lambda name: {"suite": name, "cases": 1, "failures": []})
    code, (direct,) = run_cli(capsys, *argv)
    path = tmp_path / "tasks.jsonl"
    path.write_text(json.dumps(task), encoding="utf-8")
    batch_code, (line,) = run_cli(capsys, "--json-lines", str(path))
    assert code == batch_code == 0 and "error" not in direct
    assert line["result"] == pick(direct)


def test_cli_batch_exit_code_follows_the_command_line(tmp_path, capsys, monkeypatch):
    import resym.cli as cli_module
    monkeypatch.setattr(cli_module, "run_suite",
                        lambda name: {"suite": name, "cases": 1, "failures": ["boom"]})
    monkeypatch.setattr(cli_module, "nodal_factorization_check", lambda order: False)
    good = {"op": "res", "form": "t^-1 d(t)"}
    for argv, task in ((["verify", "--suite", "axioms"], {"op": "verify", "suite": "axioms"}),
                       (["nodal"], {"op": "nodal"})):
        assert run_cli(capsys, *argv)[0] == 1
        path = tmp_path / "tasks.jsonl"
        path.write_text("\n".join(json.dumps(t) for t in (task, good)), encoding="utf-8")
        code, (first, second) = run_cli(capsys, "--json-lines", str(path))
        assert code == 1 and "error" not in first and second["result"] == "1"


def test_cli_unknown_flag_is_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["res", "--frobnicate", "t^-1 d(t)"])
    assert exc.value.code != 0


def test_cli_batch(tmp_path, capsys):
    tasks = [
        {"op": "res", "form": "t^-1 d(t)", "n": 1},
        {"op": "global-sum", "function": "1/t"},
        {"op": "nodal", "order": 6},
        {"op": "res", "form": "t1^-1*t2^-1 d(t1) ^ d(t2)"},  # n inferred as on the CLI
    ]
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(t) for t in tasks), encoding="utf-8")
    code, payloads = run_cli(capsys, "--json-lines", str(path))
    assert code == 0
    assert payloads[0]["result"] == "1"
    assert payloads[1]["result"] == "0"
    assert payloads[1]["per_place"][0]["place"] == "t"
    assert payloads[2]["result"] is True
    assert payloads[3]["result"] == "1"


def test_cli_batch_error_line(tmp_path, capsys):
    path = tmp_path / "tasks.jsonl"
    path.write_text(json.dumps({"op": "res", "form": "t^^1 d(t)", "n": 1}),
                    encoding="utf-8")
    code, payloads = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and "error" in payloads[0]
    assert payloads[0]["kind"] == "ParseError" and payloads[0]["line"] == 1


def test_cli_batch_line_not_json_keeps_going(tmp_path, capsys):
    lines = [json.dumps({"op": "res", "form": "t^-1 d(t)", "n": 1}),
             "not json",
             "",
             json.dumps({"op": "res", "form": "t^-1 d(t) ^^", "n": 1}),
             json.dumps({"op": "res", "n": 1}),
             json.dumps({"op": "res", "form": "t^-1 d(t)", "n": 0}),
             json.dumps({"op": "res", "form": "t^-2 d(t)", "n": 1})]
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    code, payloads = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and len(payloads) == 6
    first, not_json, bad_form, no_form, no_variables, last = payloads
    assert first["result"] == "1" and "line" not in first and "kind" not in first
    assert not_json == {"error": not_json["error"], "kind": "JSONDecodeError", "line": 2}
    # blank lines are skipped but still counted
    assert bad_form["kind"] == "ParseError" and bad_form["line"] == 4
    # offset 11 is the second '^', where a d(...) block should start
    assert bad_form["offset"] == 11
    assert bad_form["form"] == "t^-1 d(t) ^^"
    assert no_form["kind"] == "KeyError" and no_form["line"] == 5
    assert no_variables["kind"] == "ValueError" and no_variables["line"] == 6
    assert last["result"] == "0"


def test_cli_batch_wrong_json_types_keep_going(tmp_path, capsys):
    lines = [{"op": "res", "form": "t^-1 d(t)", "n": [1]},
             {"op": "res", "form": 5},
             {"op": "expand", "function": "1/t", "place": "t", "order": [2]},
             {"op": "global-sum", "function": 5},
             {"op": "trace", "operator": [], "n": [1]},
             # a wrong type inside the operator JSON
             {"op": "trace", "operator": [{"coeff": 1, "shift": [[1]], "window": [[0, 1]]}]},
             {"op": "res", "form": "t^-2 d(t)", "n": 1}]
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(t) for t in lines), encoding="utf-8")
    code, payloads = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and len(payloads) == 7
    fields = ["'n'", "'form'", "'order'", "'function'", "'n'", "operator JSON"]
    for number, (task, payload, field) in enumerate(zip(lines, payloads, fields), 1):
        assert payload == dict(task, error=payload["error"], kind="ValueError", line=number)
        assert field in payload["error"]
    assert payloads[-1]["result"] == "0"


def test_batch_file_that_cannot_be_read_is_one_error_object(tmp_path, capsys):
    code, (payload,) = run_cli(capsys, "--json-lines", str(tmp_path / "missing.jsonl"))
    assert code == 1 and payload == {"error": payload["error"], "kind": "FileNotFoundError"}


def test_batch_line_that_is_not_utf8_fails_alone(tmp_path, capsys):
    path = tmp_path / "tasks.jsonl"
    path.write_bytes(b'{"op": "res", "form": "t^-1 d(t)"}\n{"op": "res", "form": "\xff"}\n'
                     b'{"op": "res", "form": "t^-2 d(t)"}\n')
    code, (first, bad, last) = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and first["result"] == "1" and last["result"] == "0"
    assert bad == {"error": bad["error"], "kind": "UnicodeDecodeError", "line": 2}


DEEP_JSON = "[" * 100_000
DEEP_PARENS = "(" * 200 + "t" + ")" * 200


def test_excessive_nesting_is_a_recursion_error_on_both_doors(tmp_path, capsys):
    """JSON nested past the recursion limit is a RecursionError; parentheses
    nested past MAX_NESTING are a ParseError at the first one too many."""
    deep_parens = {"error": "parse error at offset 100: expected at most 100 nested parentheses",
                   "kind": "ParseError", "offset": 100}
    code, (payload,) = run_cli(capsys, "trace", DEEP_JSON)
    assert code == 1 and payload == {"error": payload["error"], "kind": "RecursionError"}
    code, (payload,) = run_cli(capsys, "global-sum", DEEP_PARENS)
    assert code == 1 and payload == deep_parens
    lines = [DEEP_JSON, json.dumps({"op": "global-sum", "function": DEEP_PARENS}),
             json.dumps({"op": "res", "form": "t^-1 d(t)"})]
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    code, (deep_json, parens, last) = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and last["result"] == "1"
    assert deep_json == {"error": deep_json["error"], "kind": "RecursionError", "line": 1}
    assert parens == {**deep_parens, "op": "global-sum", "function": DEEP_PARENS, "line": 2}


def test_nesting_limit_is_exact(capsys):
    """MAX_NESTING levels parse; one more is refused at the offset of its '('."""
    assert MAX_NESTING == 100
    code, (payload,) = run_cli(capsys, "global-sum", "(" * 100 + "t^-1" + ")" * 100)
    assert code == 0 and payload["sum"] == "0" and payload["places"][0]["residue"] == "1"
    inner = "1/t - 2"
    assert parse_rational_function("(" * 100 + inner + ")" * 100) == \
        parse_rational_function(inner)
    text = "t + " + "(" * 101 + inner + ")" * 101
    with pytest.raises(ParseError) as err:
        parse_rational_function(text)
    assert err.value.offset == text.index("(") + 100


@contextmanager
def int_str_digits(limit: int):
    """The interpreter's int-to-str digit limit set to `limit` inside the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_exact_values_of_any_size_print_on_both_doors(tmp_path, capsys):
    """Answers past str()'s default 4,300 digits print in full under that
    limit; the expected text is made with the limit lifted."""
    tasks = [({"form": "2^20000*t^-1 d(t)"}, 2 ** 20000),
             # the trace of (1+i)^999999 = 2^499999 (1 - i)
             ({"form": "(1+x)^999999*t^-1 d(t)", "ext": "x^2+1"}, 2 ** 500000)]
    with int_str_digits(0):
        expected = [str(value) for _, value in tasks]
    assert [len(text) for text in expected] == [6021, 150515]
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps({"op": "res", **task}) for task, _ in tasks),
                    encoding="utf-8")
    with int_str_digits(4300):
        for (task, _), text in zip(tasks, expected):
            ext = ["--ext", task["ext"]] if "ext" in task else []
            code, (payload,) = run_cli(capsys, "res", *ext, task["form"])
            assert code == 0 and payload == {"value": text}
        code, results = run_cli(capsys, "--json-lines", str(path))
        assert code == 0 and [line["result"] for line in results] == expected
        code, (payload,) = run_cli(capsys, "global-sum", "3^10000/t - 3^10000/(t-1)")
    with int_str_digits(0):
        big = str(3 ** 10000)
    assert code == 0 and payload["sum"] == "0"
    assert sorted(p["residue"] for p in payload["places"]) == sorted(["-" + big, big, "0"])


def test_res_refuses_more_variables_than_wedge_factors_before_parsing(tmp_path, capsys):
    """n is inferred as 10^11 - 1 and checked against the one d(...) block
    before any exponent vector of that length is built."""
    form = "t99999999999^-1 d(t99999999999)"
    code, (payload,) = run_cli(capsys, "res", form)
    assert code == 1 and payload["kind"] == "ParseError" and payload["offset"] == len(form)
    assert "99999999999 wedge factors, found 1" in payload["error"]
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(t) for t in ({"op": "res", "form": form},
                                                      {"op": "res", "form": "t^-1 d(t)"})),
                    encoding="utf-8")
    code, (refused, last) = run_cli(capsys, "--json-lines", str(path))
    assert code == 1 and refused["kind"] == "ParseError" and last["result"] == "1"


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    """Each command of the README's CLI block exits 0, and one whose comment
    is JSON prints that JSON."""
    import resym.cli as cli_module
    monkeypatch.setattr(cli_module, "run_suite",
                        lambda name: {"suite": name, "cases": 1, "failures": []})
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tasks.jsonl").write_text('{"op": "res", "form": "t^-1 d(t)", "n": 1}\n'
                                          '{"op": "global-sum", "function": "1/t"}\n',
                                          encoding="utf-8")
    checked = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "resym"
        code, payloads = run_cli(capsys, *argv)
        assert code == 0 and payloads and all("error" not in p for p in payloads), line
        try:
            expected = json.loads(comment)
        except ValueError:
            continue
        assert payloads == [expected], line
        checked += 1
    assert checked == 5
