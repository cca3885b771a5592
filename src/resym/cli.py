"""Command-line front end.

Subcommands dispatch into the library and print one JSON object on stdout;
every scalar in the output is exact, rendered as a string.  Any library
error becomes {"error": message, "kind": exception class name} (plus the
"offset" of a parse error) with a nonzero exit code.  `--json-lines FILE`
runs a batch of tasks, one JSON object per line, echoing each input object
back with its result attached; an error there also names its 1-based "line".
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ParseError, ResymError
from .operators import operator_from_json, tate_trace
from .parser import (number_of_variables, parse_extension_modulus, parse_form,
                     parse_rational_function)
from .residue import (Place, expand_at_place, global_residue_sum,
                      nodal_factorization_check, residue_form)
from .scalars import QQ, ExtensionField, render_scalar
from .verify import run_suite


def _field_from_ext(ext: str | None):
    if not ext:
        return QQ
    return ExtensionField(parse_extension_modulus(ext))


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _error_payload(exc: Exception) -> dict:
    payload = {"error": str(exc), "kind": type(exc).__name__}
    if isinstance(exc, ParseError):
        payload["offset"] = exc.offset
    return payload


def _place_from_text(text: str) -> Place:
    if text.strip() in ("inf", "infinity", "oo"):
        return Place.infinity()
    rf = parse_rational_function(text)
    if rf.den.degree != 0:
        raise ValueError("a place is a polynomial, not a quotient")
    return Place.finite(rf.num.monic())


def _series_payload(field, series) -> dict:
    terms = {str(exps[0]): render_scalar(c)
             for exps, c in sorted(series.coeffs.items())}
    return {
        "field": repr(field),
        "order": series.order,
        "coefficients": terms,
    }


def cmd_res(args) -> dict:
    """Residue of a form; without n, the largest variable index it names."""
    n = max(1, number_of_variables(args.form)) if args.n is None else int(args.n)
    form = parse_form(args.form, n, _field_from_ext(args.ext))
    return {"value": str(residue_form(form))}


def cmd_trace(args) -> dict:
    field = _field_from_ext(args.ext)
    text = args.operator
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    op = operator_from_json(json.loads(text), args.n, field)
    return {"value": render_scalar(tate_trace(op))}


def cmd_expand(args) -> dict:
    rf = parse_rational_function(args.function)
    place = _place_from_text(args.place)
    field, series = expand_at_place(rf, place, args.order)
    return _series_payload(field, series)


def cmd_global_sum(args) -> dict:
    rf = parse_rational_function(args.function)
    total, report = global_residue_sum(rf)
    return {
        "sum": str(total),
        "places": [{"place": place.render(), "residue": str(res)}
                   for place, res in report],
    }


def cmd_verify(args) -> dict:
    return run_suite(args.suite)


def cmd_nodal(args) -> dict:
    return {"ok": nodal_factorization_check(args.order)}


def _batch_task(obj: dict) -> dict:
    out = dict(obj)
    op = obj.get("op")
    if op == "res":
        ns = argparse.Namespace(form=obj["form"], n=obj.get("n"), ext=obj.get("ext"))
        out["result"] = cmd_res(ns)["value"]
    elif op == "global-sum":
        result = cmd_global_sum(argparse.Namespace(function=obj["function"]))
        out["result"] = result["sum"]
        out["per_place"] = result["places"]
    elif op == "trace":
        ns = argparse.Namespace(operator=json.dumps(obj["operator"]),
                                n=int(obj.get("n", 1)), ext=obj.get("ext"))
        out["result"] = cmd_trace(ns)["value"]
    elif op == "expand":
        ns = argparse.Namespace(function=obj["function"], place=obj["place"],
                                order=int(obj.get("order", 2)))
        out["result"] = cmd_expand(ns)
    elif op == "nodal":
        out["result"] = cmd_nodal(argparse.Namespace(order=int(obj.get("order", 12))))["ok"]
    elif op == "verify":
        out["result"] = cmd_verify(argparse.Namespace(suite=obj.get("suite", "all")))
    else:
        raise ValueError(f"unknown batch op {op!r}")
    return out


def run_batch(path: str) -> int:
    status = 0
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            obj = None
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("a batch line must be a JSON object")
                _emit(_batch_task(obj))
            except (ResymError, ValueError, KeyError, ZeroDivisionError) as exc:
                # json.JSONDecodeError is a ValueError: the batch goes on.
                failed = dict(obj) if isinstance(obj, dict) else {}
                failed.update(_error_payload(exc), line=number)
                _emit(failed)
                status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resym",
        description="Exact residue symbols on multi-Laurent series.")
    parser.add_argument("--json-lines", metavar="FILE",
                        help="batch mode: one JSON task per line")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("res", help="residue of a differential form")
    p.add_argument("form", help="e.g. \"t^-1 d(t)\" or \"t1^-1*t2^-1 d(t1) ^ d(t2)\"")
    p.add_argument("--n", type=int, default=None, help="number of variables")
    p.add_argument("--ext", default=None, help="extension modulus, e.g. \"x^2+1\"")
    p.set_defaults(fn=cmd_res)

    p = sub.add_parser("trace", help="finite-potent trace of an operator (JSON)")
    p.add_argument("operator", help="operator JSON, or @file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ext", default=None)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("expand", help="expand a rational function at a place")
    p.add_argument("function")
    p.add_argument("--place", required=True, help="monic polynomial or 'inf'")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("global-sum", help="sum of residues over all places")
    p.add_argument("function")
    p.set_defaults(fn=cmd_global_sum)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=["all", "axioms", "compare", "global", "nodal"],
                   default="all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("nodal", help="nodal-cubic factorization check")
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(fn=cmd_nodal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.json_lines:
        return run_batch(args.json_lines)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        result = args.fn(args)
    except (ResymError, ValueError, KeyError, ZeroDivisionError, OSError,
            json.JSONDecodeError) as exc:
        _emit(_error_payload(exc))
        return 1
    _emit(result)
    if args.fn is cmd_verify:
        return 0 if not result["failures"] else 1
    if args.fn is cmd_nodal:
        return 0 if result["ok"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
