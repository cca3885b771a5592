"""Command-line front end.

Subcommands dispatch into the library and print one JSON object on stdout;
every scalar in the output is exact, rendered as a string.  Any library
error becomes {"error": message, "kind": exception class name} (plus the
"offset" of a parse error) with a nonzero exit code.  `--json-lines FILE`
runs a batch of tasks, one JSON object per line, echoing each input object
back with its result attached; an error there also names its 1-based "line".
Each subcommand is one entry of `COMMANDS`, read by the argument parser and
the batch reader alike, and both turn the same exceptions into error objects.
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
from .verify import SUITES, run_suite


def _field_from_ext(ext: str | None):
    if not ext:
        return QQ
    return ExtensionField(parse_extension_modulus(ext))


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


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


def cmd_res(args) -> tuple:
    """Residue of a form; without n, the largest variable index it names."""
    n = max(1, number_of_variables(args.form)) if args.n is None else int(args.n)
    value = render_scalar(residue_form(parse_form(args.form, n, _field_from_ext(args.ext))))
    return {"value": value}, {"result": value}, 0


def cmd_trace(args) -> tuple:
    """Trace of an operator given as JSON text, @file or a parsed list;
    without n, the length of its shifts."""
    data = args.operator
    if isinstance(data, str):
        if data.startswith("@"):
            with open(data[1:], "r", encoding="utf-8") as fh:
                data = fh.read()
        data = json.loads(data)
    value = render_scalar(tate_trace(operator_from_json(data, args.n, _field_from_ext(args.ext))))
    return {"value": value}, {"result": value}, 0


def cmd_expand(args) -> tuple:
    field, series = expand_at_place(parse_rational_function(args.function),
                                    _place_from_text(args.place), args.order)
    terms = {str(exps[0]): render_scalar(c) for exps, c in sorted(series.coeffs.items())}
    payload = {"field": repr(field), "order": series.order, "coefficients": terms}
    return payload, {"result": payload}, 0


def cmd_global_sum(args) -> tuple:
    total, report = global_residue_sum(parse_rational_function(args.function))
    places = [{"place": place.render(), "residue": render_scalar(res)} for place, res in report]
    total = render_scalar(total)
    return {"sum": total, "places": places}, {"result": total, "per_place": places}, 0


def cmd_verify(args) -> tuple:
    result = run_suite(args.suite)
    return result, {"result": result}, 1 if result["failures"] else 0


def cmd_nodal(args) -> tuple:
    ok = nodal_factorization_check(args.order)
    return {"ok": ok}, {"result": ok}, 0 if ok else 1


_REQUIRED = object()

# name: (command, help, fields).  A command returns its command-line payload,
# the fields a batch line gets added, and its exit status.  A field is (name,
# JSON kind, default, help): on the command line a leading required field is
# positional and every other field is an option; a batch line leaving out an
# optional field gets the same default.
COMMANDS = {
    "res": (cmd_res, "residue of a differential form", (
        ("form", str, _REQUIRED, "e.g. \"t^-1 d(t)\" or \"t1^-1*t2^-1 d(t1) ^ d(t2)\""),
        ("n", int, None, "number of variables"),
        ("ext", str, None, "extension modulus, e.g. \"x^2+1\""))),
    "trace": (cmd_trace, "finite-potent trace of an operator (JSON)", (
        ("operator", list, _REQUIRED, "operator JSON, or @file"),
        ("n", int, None, "number of variables (default: the length of the shifts)"),
        ("ext", str, None, None))),
    "expand": (cmd_expand, "expand a rational function at a place", (
        ("function", str, _REQUIRED, None),
        ("place", str, _REQUIRED, "monic polynomial or 'inf'"),
        ("order", int, 4, None))),
    "global-sum": (cmd_global_sum, "sum of residues over all places", (
        ("function", str, _REQUIRED, None),)),
    "verify": (cmd_verify, "run a property suite", (("suite", str, "all", None),)),
    "nodal": (cmd_nodal, "nodal-cubic factorization check", (("order", int, 12, None),)),
}
_CHOICES = {"suite": ["all", *SUITES]}

# What either front door turns into an error object; a JSONDecodeError and a
# UnicodeDecodeError are ValueErrors, and input nested past the interpreter's
# recursion limit is a RecursionError.
_REFUSALS = (ResymError, ValueError, KeyError, ZeroDivisionError, OSError, RecursionError)


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


def _batch_task(obj) -> tuple:
    """The line echoed back with its result, and the line's exit status."""
    if not isinstance(obj, dict):
        raise ValueError("a batch line must be a JSON object")
    op = obj.get("op")
    if not isinstance(op, str) or op not in COMMANDS:
        raise ValueError(f"unknown batch op {op!r}")
    fn, _, fields = COMMANDS[op]
    _, result, status = fn(argparse.Namespace(**{
        name: _field(obj, name, kind, default) for name, kind, default, _ in fields}))
    return {**obj, **result}, status


def run_batch(path: str) -> int:
    status = 0
    with open(path, "rb") as fh:
        # bytes.splitlines() breaks lines where text mode's universal newlines
        # would; each line is decoded on its own, so a bad byte fails one line
        for number, raw in enumerate((piece for chunk in fh for piece in chunk.splitlines()), 1):
            obj = None
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                out, line_status = _batch_task(obj)
                _emit(out)
                status = max(status, line_status)
            except _REFUSALS as exc:
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
    for command, (fn, text, fields) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for k, (name, kind, default, help_) in enumerate(fields):
            if k == 0 and default is _REQUIRED:
                p.add_argument(name, help=help_)
            else:
                p.add_argument(f"--{name}", type=int if kind is int else None,
                               choices=_CHOICES.get(name), required=default is _REQUIRED,
                               default=None if default is _REQUIRED else default, help=help_)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.json_lines and not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        if args.json_lines:
            return run_batch(args.json_lines)
        payload, _, status = args.fn(args)
    except _REFUSALS as exc:
        _emit(_error_payload(exc))
        return 1
    _emit(payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
