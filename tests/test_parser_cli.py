from __future__ import annotations

import json
import random

import pytest

from resym import (DifferentialForm, ExtensionField, LaurentPoly, ParseError,
                   PolyQ, RationalFunction, parse_expression,
                   parse_extension_modulus, parse_form, parse_laurent,
                   parse_rational_function, render_form, render_laurent)
from resym.cli import main
from resym.verify import rand_laurent, rand_rational_function


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
    ext_poly = LaurentPoly(1, field, {(-2,): field.element((1, 1)),
                                      (0,): field.element((0, 3))})
    assert parse_laurent(render_laurent(ext_poly), 1, field) == ext_poly
    count += 1
    assert count >= 50


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


def test_cli_trace(capsys):
    op = [{"coeff": "3/2", "shift": [0], "window": [[0, 4]]}]
    code, (payload,) = run_cli(capsys, "trace", "--n", "1", json.dumps(op))
    assert code == 0 and payload == {"value": "6"}


def test_cli_trace_malformed_operator_is_error(capsys):
    code, (payload,) = run_cli(capsys, "trace", "--n", "1", "null")
    assert code == 1 and "error" in payload
    assert payload["kind"] == "ValueError" and "offset" not in payload
    code, (payload,) = run_cli(capsys, "trace", "--n", "1", "[{")
    assert code == 1 and payload["kind"] == "JSONDecodeError"


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
