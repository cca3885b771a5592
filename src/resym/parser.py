"""Expression grammar for the command line and the serializers.

Laurent polynomials:  expr := term (('+'|'-') term)*,
term := factor ('*' factor)*, factor := base ('^' int)?, where a base is a
rational literal, an extension-field element in parentheses (polynomial in
the declared generator), or a variable t / t1 / t2 / ...  Differential
forms append d-blocks joined by the wedge '^':  [expr] d(expr) ^ d(expr).
Rational functions in one variable allow the four operations with the
usual precedence and parentheses.  Whitespace is ignored everywhere and
errors carry byte offsets.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .laurent import DifferentialForm, LaurentPoly
from .polynomials import PolyQ
from .residue import RationalFunction
from .scalars import QQ, ExtensionField

_SYMBOLS = "+-*/^()"


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(i, f"a token, not {ch!r}")
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int, field=QQ):
        self.text = text
        self.dim = dim
        self.field = field
        self.tokens = _tokenize(text)
        self.k = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead=0) -> _Token:
        return self.tokens[min(self.k + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.k]
        if tok.kind != "end":
            self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, f"'{kind}'")
        return self.next()

    def fail(self, expected: str):
        raise ParseError(self.peek().pos, expected)

    # -- shared pieces ---------------------------------------------------------

    def signed_int(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.expect("num")
        return sign * int(tok.text)

    def rational_literal(self) -> Fraction:
        tok = self.expect("num")
        value = Fraction(int(tok.text))
        if self.peek().kind == "/" and self.peek(1).kind == "num":
            self.next()
            den = int(self.next().text)
            if den == 0:
                raise ParseError(tok.pos, "a nonzero denominator")
            value /= den
        return value

    def variable_axis(self, tok: _Token) -> int:
        name = tok.text
        if name == "t":
            return 1
        if name.startswith("t") and name[1:].isdigit():
            axis = int(name[1:])
            if 1 <= axis <= self.dim:
                return axis
            raise ParseError(tok.pos, f"a variable t1..t{self.dim}")
        raise ParseError(tok.pos, "a variable like t or t1")

    def signed_sum(self, term):
        """[-] term (('+'|'-') term)*, with `term` parsing one operand."""
        negate = self.peek().kind == "-"
        if negate:
            self.next()
        value = term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self, factor, ops=("*",)):
        """factor (op factor)* for op in `ops` ('*', and '/' if allowed)."""
        value = factor()
        while self.peek().kind in ops:
            op = self.next().kind
            rhs = factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    # -- scalar expressions (extension elements) -----------------------------

    def scalar_expr(self):
        return self.signed_sum(lambda: self.product(self.scalar_factor))

    def scalar_factor(self):
        tok = self.peek()
        if tok.kind == "num":
            base = self.field.coerce(self.rational_literal())
        elif (tok.kind == "name" and isinstance(self.field, ExtensionField)
              and tok.text == self.field.symbol):
            self.next()
            base = self.field.generator
        else:
            self.fail("a scalar")
        if self.peek().kind == "^":
            self.next()
            base = base ** self.signed_int()
        return base

    # -- Laurent polynomials --------------------------------------------------

    def laurent_expr(self) -> LaurentPoly:
        return self.signed_sum(lambda: self.product(self.laurent_factor))

    def laurent_factor(self) -> LaurentPoly:
        tok = self.peek()
        if tok.kind == "num":
            base = LaurentPoly.constant(self.dim, self.rational_literal(), self.field)
        elif tok.kind == "(":
            self.next()
            scalar = self.scalar_expr()
            self.expect(")")
            base = LaurentPoly.constant(self.dim, scalar, self.field)
        elif tok.kind == "name":
            axis = self.variable_axis(tok)
            self.next()
            base = LaurentPoly.variable(self.dim, axis, self.field)
        else:
            self.fail("a coefficient or variable")
        if self.peek().kind == "^":
            self.next()
            if self.peek().kind not in ("num", "-"):
                self.fail("an integer exponent")
            base = base ** self.signed_int()
        return base

    # -- differential forms -----------------------------------------------------

    def at_d_block(self) -> bool:
        return (self.peek().kind == "name" and self.peek().text == "d"
                and self.peek(1).kind == "(")

    def d_block(self) -> LaurentPoly:
        self.expect("name")
        self.expect("(")
        inner = self.laurent_expr()
        self.expect(")")
        return inner

    def form_expr(self) -> DifferentialForm:
        if self.at_d_block():
            f0 = LaurentPoly.constant(self.dim, 1, self.field)
        else:
            f0 = self.laurent_expr()
        if not self.at_d_block():
            self.fail("a d(...) block")
        args = [self.d_block()]
        while self.peek().kind == "^":
            self.next()
            if not self.at_d_block():
                self.fail("a d(...) block after '^'")
            args.append(self.d_block())
        return DifferentialForm(f0, args)

    # -- rational functions -----------------------------------------------------

    def rf_expr(self) -> RationalFunction:
        return self.signed_sum(lambda: self.product(self.rf_power, ("*", "/")))

    def rf_power(self) -> RationalFunction:
        base = self.rf_atom()
        if self.peek().kind == "^":
            self.next()
            k = self.signed_int()
            # num and den are coprime, so their powers are too.
            num, den = base.num ** abs(k), base.den ** abs(k)
            base = RationalFunction(num, den) if k >= 0 else RationalFunction(den, num)
        return base

    def rf_atom(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "num":
            num = self.rational_literal()
            return RationalFunction(PolyQ.constant(num))
        if tok.kind == "name" and tok.text == "t":
            self.next()
            return RationalFunction(PolyQ.x())
        if tok.kind == "(":
            self.next()
            inner = self.rf_expr()
            self.expect(")")
            return inner
        self.fail("a number, t, or '('")

    def finish(self, value):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.pos, "end of input")
        return value


# -- public entry points ------------------------------------------------------


def parse_laurent(text: str, dim: int, field=QQ) -> LaurentPoly:
    p = _Parser(text, dim, field)
    return p.finish(p.laurent_expr())


def parse_form(text: str, dim: int, field=QQ) -> DifferentialForm:
    if dim < 1:
        raise ValueError(f"a form needs at least one variable, not n = {dim}")
    p = _Parser(text, dim, field)
    form = p.finish(p.form_expr())
    if form.degree != dim:
        raise ParseError(len(text), f"{dim} wedge factors, found {form.degree}")
    return form


def parse_rational_function(text: str) -> RationalFunction:
    p = _Parser(text, 1, QQ)
    return p.finish(p.rf_expr())


def parse_scalar(text: str, field=QQ):
    p = _Parser(text, 1, field)
    return p.finish(p.scalar_expr())


def parse_extension_modulus(text: str) -> PolyQ:
    """A monic modulus like x^2+1, parsed into a polynomial over Q."""
    p = _Parser(text, 1, QQ)
    symbol = ExtensionField.symbol

    def factor() -> PolyQ:
        tok = p.peek()
        if tok.kind == "num":
            base = PolyQ.constant(p.rational_literal())
        elif tok.kind == "name" and tok.text == symbol:
            p.next()
            base = PolyQ.x()
        else:
            p.fail(f"a rational or {symbol}")
        if p.peek().kind == "^":
            p.next()
            k = p.signed_int()
            if k < 0:
                raise ParseError(tok.pos, "a nonnegative exponent")
            base = base ** k
        return base

    return p.finish(p.signed_sum(lambda: p.product(factor)))


def number_of_variables(text: str) -> int:
    """Largest variable index mentioned; plain t counts as t1."""
    best = 0
    for tok in _tokenize(text):
        if tok.kind == "name" and tok.text.startswith("t"):
            if tok.text == "t":
                best = max(best, 1)
            elif tok.text[1:].isdigit():
                best = max(best, int(tok.text[1:]))
    return best


def parse_expression(text: str, dim: int = None, field=QQ):
    """Dispatching parser: differential form, Laurent polynomial, or
    rational function, decided by the shape of the input."""
    tokens = _tokenize(text)
    has_d = any(t.kind == "name" and t.text == "d" and tokens[i + 1].kind == "("
                for i, t in enumerate(tokens[:-1]))
    if dim is None:
        dim = max(1, number_of_variables(text))
    if has_d:
        return parse_form(text, dim, field)
    slashes_outside_literals = any(
        t.kind == "/" and not (tokens[i - 1].kind == "num" and tokens[i + 1].kind == "num")
        for i, t in enumerate(tokens) if 0 < i < len(tokens) - 1)
    has_parens = any(t.kind == "(" for t in tokens)
    if (slashes_outside_literals or has_parens) and not isinstance(field, ExtensionField):
        return parse_rational_function(text)
    return parse_laurent(text, dim, field)


# -- renderers ---------------------------------------------------------------


def _render_coeff_and_monomial(coeff, exps, dim: int, field) -> tuple[str, bool]:
    """Text for one term plus whether it starts with an explicit minus."""
    mono = "*".join(
        (f"t{i+1}" if dim > 1 else "t") + (f"^{e}" if e != 1 else "")
        for i, e in enumerate(exps) if e != 0)
    if isinstance(field, ExtensionField):
        ctxt = f"({field.render(coeff)})"
        negative = False
    else:
        negative = coeff < 0
        mag = abs(coeff)
        ctxt = str(mag)
        if mono and mag == 1:
            ctxt = ""
    if mono:
        body = f"{ctxt}*{mono}" if ctxt else mono
    else:
        body = ctxt if ctxt else "1"
    return body, negative


def render_laurent(poly: LaurentPoly) -> str:
    if poly.is_zero():
        return "0"
    parts = []
    for exps, coeff in poly.sorted_terms():
        body, negative = _render_coeff_and_monomial(coeff, exps, poly.dim, poly.field)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def render_form(form: DifferentialForm) -> str:
    blocks = " ^ ".join(f"d({render_laurent(g)})" for g in form.args)
    f0 = render_laurent(form.f0)
    return f"{f0} {blocks}" if f0 != "1" else blocks

