"""Expression grammar for the command line and the serializers.

Laurent polynomials:  expr := term (('+'|'-') term)*,
term := factor ('*' factor)*, factor := base ('^' int)?, where a base is a
rational literal, an extension-field element in parentheses (polynomial in
the declared generator), or a variable t / t1 / t2 / ...  A term is one
monomial, parsed straight into one coefficient and one exponent vector,
and one LaurentPoly takes all the terms of a sum.  Differential forms
append d-blocks joined by the wedge '^':  [expr] d(expr) ^ d(expr).
Rational functions in one variable allow the four operations with the
usual precedence and parentheses; they are built as unreduced quotients
and reduced once.  Literals and exponents are ASCII
digits.  Whitespace is ignored everywhere and errors carry character
offsets into the text.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .laurent import DifferentialForm, LaurentPoly
from .polynomials import PolyQ, power_text, signed_sum_text
from .residue import RationalFunction
from .scalars import QQ, ExtensionField

# One token per match: ASCII digits, a word, a symbol, or any other
# non-space character (refused).  Whitespace between matches is skipped.
_TOKEN = re.compile(r"(?P<num>[0-9]+)|(?P<name>\w+)|(?P<sym>[-+*/^()])|(?P<bad>\S)")
_VARIABLE = re.compile(r"t([0-9]*)")
# Parentheses a rational function may nest; at about seven frames a level,
# the recursive descent stays well inside the interpreter's recursion limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list:
    """(kind, text, offset) tuples ending in an "end" token; a symbol is its
    own kind.  A word must start with a letter."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, word, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad" or (kind == "name" and not word[0].isalpha()):
            raise ParseError(pos, f"a token, not {word[0]!r}")
        tokens.append((word if kind == "sym" else kind, word, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int, field=QQ):
        self.dim = dim
        self.field = field
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead=0) -> tuple:
        return self.tokens[min(self.k + ahead, len(self.tokens) - 1)]

    def next(self) -> tuple:
        tok = self.tokens[self.k]
        if tok[0] != "end":
            self.k += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], f"'{kind}'")
        return self.next()

    def fail(self, expected: str):
        raise ParseError(self.peek()[2], expected)

    # -- shared pieces ---------------------------------------------------------

    def power(self) -> int:
        """The exponent of an optional '^' ['-'] digits suffix; 1 without one."""
        if self.peek()[0] != "^":
            return 1
        self.next()
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        if self.peek()[0] != "num":
            self.fail("an integer exponent")
        return sign * int(self.next()[1])

    def rational_literal(self) -> Fraction:
        _, text, pos = self.next()
        value = Fraction(int(text))
        if self.peek()[0] == "/" and self.peek(1)[0] == "num":
            self.next()
            den = int(self.next()[1])
            if den == 0:
                raise ParseError(pos, "a nonzero denominator")
            value /= den
        return value

    def variable_axis(self) -> int:
        _, name, pos = self.next()
        match = _VARIABLE.fullmatch(name)
        if not match:
            raise ParseError(pos, "a variable like t or t1")
        axis = int(match[1] or 1)
        if not 1 <= axis <= self.dim:
            raise ParseError(pos, f"a variable t1..t{self.dim}")
        return axis

    def signed_terms(self, term):
        """[-] term (('+'|'-') term)*, with `term` parsing one operand;
        yields (negative, operand) pairs."""
        negative = self.peek()[0] == "-"
        if negative:
            self.next()
        yield negative, term()
        while self.peek()[0] in ("+", "-"):
            negative = self.next()[0] == "-"
            yield negative, term()

    def signed_sum(self, term):
        """The signed terms, summed left to right."""
        terms = self.signed_terms(term)
        negative, value = next(terms)
        value = -value if negative else value
        for negative, rhs in terms:
            value = value - rhs if negative else value + rhs
        return value

    def product(self, factor, ops=("*",)):
        """factor (op factor)* for op in `ops` ('*', and '/' if allowed)."""
        value = factor()
        while self.peek()[0] in ops:
            op = self.next()[0]
            rhs = factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    # -- scalar expressions (extension elements) -----------------------------

    def scalar_expr(self):
        return self.signed_sum(lambda: self.product(self.scalar_factor))

    def scalar_factor(self):
        kind, text, _ = self.peek()
        if kind == "num":
            base = self.field.coerce(self.rational_literal())
        elif (kind == "name" and isinstance(self.field, ExtensionField)
              and text == self.field.symbol):
            self.next()
            base = self.field.generator
        else:
            self.fail("a scalar")
        return base ** self.power()

    # -- Laurent polynomials --------------------------------------------------

    def laurent_expr(self) -> LaurentPoly:
        """One LaurentPoly for all the terms; it merges equal monomials."""
        return LaurentPoly(self.dim, self.field, [
            (exps, -coeff if negative else coeff)
            for negative, (exps, coeff) in self.signed_terms(self.laurent_term)])

    def laurent_term(self) -> tuple:
        """factor ('*' factor)* as one monomial (exponents, coefficient): the
        scalar factors multiply into one coefficient and each variable's
        exponent adds into one vector."""
        coeff, exps = None, [0] * self.dim
        while True:
            kind = self.peek()[0]
            if kind == "name":
                axis = self.variable_axis()
                exps[axis - 1] += self.power()
            else:
                if kind == "num":
                    value = self.rational_literal()
                elif kind == "(":
                    self.next()
                    value = self.scalar_expr()
                    self.expect(")")
                else:
                    self.fail("a coefficient or variable")
                k = self.power()
                if k < 0 and not value:
                    raise ZeroDivisionError("zero to a negative power")
                value = value ** k
                coeff = value if coeff is None else coeff * value
            if self.peek()[0] != "*":
                return tuple(exps), 1 if coeff is None else coeff
            self.next()

    # -- differential forms -----------------------------------------------------

    def at_d_block(self) -> bool:
        return self.peek()[:2] == ("name", "d") and self.peek(1)[0] == "("

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
        while self.peek()[0] == "^":
            self.next()
            if not self.at_d_block():
                self.fail("a d(...) block after '^'")
            args.append(self.d_block())
        return DifferentialForm(f0, args)

    # -- rational functions -----------------------------------------------------

    def rf_expr(self) -> "_Quotient":
        return self.signed_sum(lambda: self.product(self.rf_power, ("*", "/")))

    def rf_power(self) -> "_Quotient":
        base = self.rf_atom()
        k = self.power()
        return base if k == 1 else base ** k

    def rf_atom(self) -> "_Quotient":
        kind, text, pos = self.peek()
        if kind == "num":
            return _Quotient(PolyQ.constant(self.rational_literal()))
        if kind == "name" and text == "t":
            self.next()
            return _Quotient(PolyQ.x())
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(pos, f"at most {MAX_NESTING} nested parentheses")
            self.depth += 1
            self.next()
            inner = self.rf_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        self.fail("a number, t, or '('")

    def finish(self, value):
        if self.peek()[0] != "end":
            self.fail("end of input")
        return value


class _Quotient:
    """num/den as parsed: the four operations and integer powers of a
    rational function, with no gcd per operation.  The denominator is never
    zero; parse_rational_function reduces the pair once, at the end."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, den: PolyQ = None):
        self.num = num
        self.den = PolyQ.one() if den is None else den

    def __add__(self, other: "_Quotient") -> "_Quotient":
        if self.den == other.den:
            return _Quotient(self.num + other.num, self.den)
        return _Quotient(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "_Quotient") -> "_Quotient":
        return self + (-other)

    def __neg__(self) -> "_Quotient":
        return _Quotient(-self.num, self.den)

    def __mul__(self, other: "_Quotient") -> "_Quotient":
        return _Quotient(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "_Quotient") -> "_Quotient":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return _Quotient(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "_Quotient":
        if k >= 0:
            return _Quotient(self.num ** k, self.den ** k)
        if self.num.is_zero():
            raise ZeroDivisionError("zero to a negative power")
        return _Quotient(self.den ** -k, self.num ** -k)


# -- public entry points ------------------------------------------------------


def parse_laurent(text: str, dim: int, field=QQ) -> LaurentPoly:
    p = _Parser(text, dim, field)
    return p.finish(p.laurent_expr())


def _d_blocks(tokens: list) -> int:
    """The number of d( pairs among the tokens: the wedge factors of a form.
    The last token is "end", with empty text, so a "d" always has a next one."""
    return sum(tokens[k + 1][0] == "(" for k, tok in enumerate(tokens) if tok[1] == "d")


def parse_form(text: str, dim: int, field=QQ) -> DifferentialForm:
    if dim < 1:
        raise ValueError(f"a form needs at least one variable, not n = {dim}")
    p = _Parser(text, dim, field)
    # checked before parsing, which builds exponent vectors of length dim
    found = _d_blocks(p.tokens)
    if found != dim:
        raise ParseError(len(text), f"{dim} wedge factors, found {found}")
    return p.finish(p.form_expr())


def parse_rational_function(text: str) -> RationalFunction:
    p = _Parser(text, 1, QQ)
    q = p.finish(p.rf_expr())
    return RationalFunction(q.num, q.den)


def parse_scalar(text: str, field=QQ):
    p = _Parser(text, 1, field)
    return p.finish(p.scalar_expr())


def parse_extension_modulus(text: str) -> PolyQ:
    """A monic modulus like x^2+1, parsed into a polynomial over Q."""
    p = _Parser(text, 1, QQ)
    symbol = ExtensionField.symbol

    def factor() -> PolyQ:
        kind, word, pos = p.peek()
        if kind == "num":
            base = PolyQ.constant(p.rational_literal())
        elif kind == "name" and word == symbol:
            p.next()
            base = PolyQ.x()
        else:
            p.fail(f"a rational or {symbol}")
        k = p.power()
        if k < 0:
            raise ParseError(pos, "a nonnegative exponent")
        return base ** k

    return p.finish(p.signed_sum(lambda: p.product(factor)))


def number_of_variables(text: str) -> int:
    """Largest variable index mentioned; plain t counts as t1."""
    matches = (_VARIABLE.fullmatch(word) for _, word, _ in _tokenize(text))
    return max((int(m[1] or 1) for m in matches if m), default=0)


def parse_expression(text: str, dim: int = None, field=QQ):
    """Dispatching parser: differential form, Laurent polynomial, or
    rational function, decided by the shape of the input."""
    tokens = _tokenize(text)
    kinds = [kind for kind, _, _ in tokens]
    if dim is None:
        dim = max(1, number_of_variables(text))
    if _d_blocks(tokens):
        return parse_form(text, dim, field)
    slashes_outside_literals = any(
        kinds[i] == "/" and (kinds[i - 1], kinds[i + 1]) != ("num", "num")
        for i in range(1, len(kinds) - 1))
    if (slashes_outside_literals or "(" in kinds) and not isinstance(field, ExtensionField):
        return parse_rational_function(text)
    return parse_laurent(text, dim, field)


# -- renderers ---------------------------------------------------------------


def render_laurent(poly: LaurentPoly) -> str:
    """Terms in exponent order; an extension coefficient keeps its signs in parentheses."""
    names = ["t"] if poly.dim == 1 else [f"t{i}" for i in range(1, poly.dim + 1)]
    ext = isinstance(poly.field, ExtensionField)
    terms = []
    for exps, coeff in poly.sorted_terms():
        mono = "*".join(power_text(1, name, e) for name, e in zip(names, exps) if e)
        magnitude = f"({poly.field.render(coeff)})" if ext else abs(coeff)
        terms.append((not ext and coeff < 0, power_text(magnitude, mono, 1 if mono else 0)))
    return signed_sum_text(terms)


def render_form(form: DifferentialForm) -> str:
    blocks = " ^ ".join(f"d({render_laurent(g)})" for g in form.args)
    f0 = render_laurent(form.f0)
    return f"{f0} {blocks}" if f0 != "1" else blocks

