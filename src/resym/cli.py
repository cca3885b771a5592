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
    """Trace of an operator given as JSON text, @file or a parsed list;
    without n, the length of its shifts."""
    data = args.operator
    if isinstance(data, str):
        if data.startswith("@"):
            with open(data[1:], "r", encoding="utf-8") as fh:
                data = fh.read()
        data = json.loads(data)
    op = operator_from_json(data, args.n, _field_from_ext(args.ext))
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


_REQUIRED = object()
# One default per optional field, for the command line and batch lines alike.
_EXPAND_ORDER = 4
_NODAL_ORDER = 12
_SUITE = "all"


def _field(obj: dict, name: str, kind: type, default=_REQUIRED):
    """The batch field `name`, which must be a JSON string (kind str),
    integer (kind int) or list (kind list).  An absent required field is a
    KeyError; an absent or null optional one gives `default`; a wrong type
    is a ValueError that names the field."""
    value = obj.get(name)
    if value is None and default is not _REQUIRED:
        return default
    if name not in obj:
        raise KeyError(name)
    # true and false are no JSON integers, though bool subclasses int
    if not isinstance(value, kind) or isinstance(value, bool):
        want = {str: "a string", int: "an integer", list: "a list"}[kind]
        raise ValueError(f"batch field {name!r} must be {want}, not {json.dumps(value)}")
    return value


def _exit_status(fn, result: dict) -> int:
    """1 for a verify run with failures or a failed nodal check, else 0."""
    if fn is cmd_verify:
        return 1 if result["failures"] else 0
    if fn is cmd_nodal:
        return 0 if result["ok"] else 1
    return 0


# op: (command, its fields as (name, JSON kind, default)), read in order
_BATCH_OPS = {
    "res": (cmd_res, (("form", str, _REQUIRED), ("n", int, None), ("ext", str, None))),
    "global-sum": (cmd_global_sum, (("function", str, _REQUIRED),)),
    "trace": (cmd_trace, (("operator", list, _REQUIRED), ("n", int, None), ("ext", str, None))),
    "expand": (cmd_expand, (("function", str, _REQUIRED), ("place", str, _REQUIRED),
                            ("order", int, _EXPAND_ORDER))),
    "nodal": (cmd_nodal, (("order", int, _NODAL_ORDER),)),
    "verify": (cmd_verify, (("suite", str, _SUITE),)),
}


def _batch_task(obj: dict):
    """The line echoed back with its result, and the line's exit status."""
    op = obj.get("op")
    if not isinstance(op, str) or op not in _BATCH_OPS:
        raise ValueError(f"unknown batch op {op!r}")
    fn, fields = _BATCH_OPS[op]
    result = fn(argparse.Namespace(**{name: _field(obj, name, kind, default)
                                      for name, kind, default in fields}))
    out = dict(obj)
    if fn is cmd_global_sum:
        out["result"], out["per_place"] = result["sum"], result["places"]
    elif fn is cmd_nodal:
        out["result"] = result["ok"]
    elif fn in (cmd_res, cmd_trace):
        out["result"] = result["value"]
    else:
        out["result"] = result
    return out, _exit_status(fn, result)


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
                out, line_status = _batch_task(obj)
                _emit(out)
                status = max(status, line_status)
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
    p.add_argument("--n", type=int, default=None,
                   help="number of variables (default: the length of the shifts)")
    p.add_argument("--ext", default=None)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("expand", help="expand a rational function at a place")
    p.add_argument("function")
    p.add_argument("--place", required=True, help="monic polynomial or 'inf'")
    p.add_argument("--order", type=int, default=_EXPAND_ORDER)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("global-sum", help="sum of residues over all places")
    p.add_argument("function")
    p.set_defaults(fn=cmd_global_sum)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=["all", "axioms", "compare", "global", "nodal"],
                   default=_SUITE)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("nodal", help="nodal-cubic factorization check")
    p.add_argument("--order", type=int, default=_NODAL_ORDER)
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
    return _exit_status(args.fn, result)


if __name__ == "__main__":
    sys.exit(main())
