"""The three seeded workloads: input generators, task runners and checks.

Inputs are generated here from the seed alone, with the benchmark's own
random draws and renderers; the library sees only the finished input (form
text, rational-function text, or a parsed form).  Tasks come in fixed
blocks whose class mix is exact, shuffled inside the block by the seed, so
every run of a few blocks has the same mix whatever the seed.

Each workload has
  generate(rng)        -> one block of tasks, expected answers included;
  prepare(task)        -> the task, with any untimed set-up done;
  run(task)            -> the library's answer, timed by the caller;
  check(task, answer)  -> None when right, else the reason it is wrong.
The library modules are looked up at call time (`residue.residue_form`,
not an imported name) so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

# Filled by bind() once src/ is on sys.path.
parser = residue = homology = scalars = None

EXT_MODULUS = "x^2+1"
EXP_BOUND = 2


def bind(modules) -> None:
    global parser, residue, homology, scalars
    parser, residue, homology, scalars = (modules["parser"], modules["residue"],
                                          modules["homology"], modules["scalars"])


@dataclass
class Task:
    kind: str
    text: str                     # the input the library parses
    expected: object = None       # oracle answer, computed before timing
    data: dict = field(default_factory=dict)

    def digest_text(self) -> str:
        """Everything the library is handed for this task."""
        d = self.data
        return f"{self.kind}|{self.text}|{d.get('n')}|{d.get('place_text')}|{d.get('order')}"


def rand_fraction(rng: random.Random, bound: int = 3) -> Fraction:
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if q:
            return q


# -- rendering ------------------------------------------------------------------


def _mono(exps, n: int) -> str:
    name = (lambda i: "t") if n == 1 else (lambda i: f"t{i + 1}")
    return "*".join(name(i) + (f"^{e}" if e != 1 else "")
                    for i, e in enumerate(exps) if e)


def render_laurent(terms, n: int) -> str:
    """terms: [(exponents, coeff)], coeff a Fraction or a pair (a, b) = a + b*x."""
    parts = []
    for exps, c in terms:
        mono = _mono(exps, n)
        if isinstance(c, tuple):
            a, b = c
            ctxt = f"({a}{'+' if b >= 0 else '-'}{abs(b)}*x)"
            negative = False
        else:
            ctxt, negative = str(abs(c)), c < 0
        body = f"{ctxt}*{mono}" if mono else ctxt
        if parts:
            parts.append(("- " if negative else "+ ") + body)
        else:
            parts.append(("-" if negative else "") + body)
    return " ".join(parts)


def render_upoly(coeffs) -> str:
    """Dense polynomial in t, constant term first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if not c:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) or "0"


# -- forms with a known residue ---------------------------------------------------


def _oracle_poly(terms, ext: bool) -> dict:
    out = {}
    for exps, c in terms:
        if ext:
            for k, v in enumerate(c):
                if v:
                    out[exps + (k,)] = v
        else:
            out[exps] = c
    return out


def random_form(rng: random.Random, n: int, ext: bool):
    """(form text, expected residue) for f0 df_1 ^..^ df_n with 2-term entries.

    f0's first term is placed against a random monomial of the Jacobian, so
    most residues are nonzero and the check is not a comparison of zeros.
    """
    def coeff():
        return (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rand_fraction(rng)) \
            if ext else rand_fraction(rng)

    def exps():
        return tuple(rng.randint(-EXP_BOUND, EXP_BOUND) for _ in range(n))

    def two_terms(first=None):
        terms = {first: coeff()} if first is not None else {}
        while len(terms) < 2:
            terms.setdefault(exps(), coeff())
        return list(terms.items())

    args = [two_terms() for _ in range(n)]
    oracle_args = [_oracle_poly(t, ext) for t in args]
    jac = oracles.jacobian(oracle_args, n, n + 1 if ext else n)
    support = sorted({e[:n] for e in jac})
    first = tuple(-1 - x for x in rng.choice(support)) if support else None
    f0 = two_terms(first)
    expected = oracles.jacobian_residue(_oracle_poly(f0, ext), jac, n, ext)
    text = render_laurent(f0, n) + " " + " ^ ".join(
        f"d({render_laurent(t, n)})" for t in args)
    return text, expected


class ResidueBatch:
    """`res` tasks: parse_form -> residue_form on rendered form text."""

    name = "residue-batch"
    # 40% n=2, 40% n=3, 20% n=4; a quarter over Q[x]/(x^2+1).
    BLOCK = ([(2, False)] * 6 + [(2, True)] * 2 + [(3, False)] * 6 + [(3, True)] * 2
             + [(4, False)] * 3 + [(4, True)] * 1)
    MAX_RATE = 70         # tasks/s the pre-generated pool covers before it wraps
    TRACE_BLOCKS = 2

    def generate(self, rng):
        block = list(self.BLOCK)
        rng.shuffle(block)
        tasks = []
        for n, ext in block:
            text, expected = random_form(rng, n, ext)
            tasks.append(Task("ext" if ext else "q", text, expected, {"n": n}))
        return tasks

    def prepare(self, task):
        return task

    def run(self, task):
        field_ = (scalars.ExtensionField(parser.parse_extension_modulus(EXT_MODULUS))
                  if task.kind == "ext" else scalars.QQ)
        form = parser.parse_form(task.text, task.data["n"], field_)
        return residue.residue_form(form)

    def check(self, task, answer):
        if answer != task.expected:
            return f"residue {answer}, oracle {task.expected}"
        return None


class CrossCheck:
    """Three-path agreement on antisymmetrized forms (Hochschild cycles)."""

    name = "cross-check"
    BLOCK = [2] * 17 + [3] * 3          # about 15% n=3
    MAX_RATE = 50
    TRACE_BLOCKS = 1

    def generate(self, rng):
        block = list(self.BLOCK)
        rng.shuffle(block)
        tasks = []
        for n in block:
            text, expected = random_form(rng, n, False)
            tasks.append(Task("cycle", text, expected, {"n": n}))
        return tasks

    def prepare(self, task):
        """Parse before timing: the timed work starts from the form."""
        task.data["form"] = parser.parse_form(task.text, task.data["n"], scalars.QQ)
        return task

    def run(self, task):
        chain = homology.hkr_antisymmetrize(task.data["form"])
        return (homology.phi_hh_closed(chain), homology.phi_hh_zigzag(chain),
                homology.phi_c(chain))

    def check(self, task, answer):
        n = task.data["n"]
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        closed, zigzag, conn = answer
        want = task.expected
        if (closed, zigzag, sign * conn) != (want, want, want):
            return f"closed {closed}, zigzag {zigzag}, phi_c {conn} (sign {sign}), oracle {want}"
        return None


# -- one-variable rational functions ----------------------------------------------

ROOTS_NON_UNIT = [Fraction(p, q) for p, q in
                  ((3, 2), (-3, 2), (2, 3), (-2, 3), (1, 2), (-1, 2), (1, 3), (-1, 3),
                   (2, 1), (-2, 1), (3, 1), (-3, 1))]
# Monic irreducible quadratics over Q, constant term first.
QUADRATICS = [(1, 0, 1), (2, 0, 1), (1, 1, 1), (2, -1, 1), (3, 2, 1), (-2, 0, 1), (-1, 1, 1)]


def _linear(a):
    return [-Fraction(a), Fraction(1)]


def _prod(factors):
    out = [Fraction(1)]
    for f in factors:
        out = oracles.upoly_mul(out, [Fraction(c) for c in f])
    return out


def _rational(num, factors):
    """Text and expanded denominator of num / prod(factor^power)."""
    den = _prod([f for f, k in factors for _ in range(k)])
    body = "*".join(f"({render_upoly(f)})" + (f"^{k}" if k != 1 else "") for f, k in factors)
    return f"({render_upoly(num)})/({body})", den


def _numerator(rng, degree: int):
    while True:
        coeffs = [rand_fraction(rng) if rng.random() < 0.8 else Fraction(0)
                  for _ in range(degree)] + [rand_fraction(rng)]
        if any(coeffs):
            return coeffs


def _band(rng: random.Random, lo: int, hi: int, i: int, count: int) -> int:
    """A draw from the i-th of `count` equal slices of [lo, hi]: a block
    covers the whole range evenly, so block costs vary little by seed."""
    width = hi - lo + 1
    return rng.randint(lo + width * i // count, lo + width * (i + 1) // count - 1)


class Series1D:
    """global_residue_sum and expand_at_place; no operator code runs."""

    name = "series-1d"
    MIX = (("gsum-small", 6), ("gsum-repeated", 4), ("gsum-binomial", 2),
           ("expand-linear", 4), ("expand-quadratic", 4))
    BLOCK = [kind for kind, count in MIX for _ in range(count)]
    MAX_RATE = 100
    TRACE_BLOCKS = 2

    def generate(self, rng):
        tasks = []
        for kind, count in self.MIX:
            make = getattr(self, "_" + kind.replace("-", "_"))
            perm = list(range(count))
            rng.shuffle(perm)
            tasks.extend(make(rng, i, perm[i], count) for i in range(count))
        rng.shuffle(tasks)
        return tasks

    @staticmethod
    def _gsum(num, factors, kind):
        """factors: [(dense factor, power)]."""
        text, den = _rational(num, factors)
        return Task(kind, text, oracles.finite_residue_total(num, den),
                    {"num": num, "den": den})

    def _gsum_small(self, rng, i, j, count):
        """Denominator of degree 2..4 from rational roots and quadratics."""
        factors, budget = [], 2 + i % 3
        while budget:
            if budget >= 2 and rng.random() < 0.4:
                factors.append((rng.choice(QUADRATICS), 1))
                budget -= 2
            else:
                factors.append((_linear(Fraction(rng.randint(-3, 3), rng.randint(1, 2))), 1))
                budget -= 1
        return self._gsum(_numerator(rng, rng.randint(0, 3)), factors, "gsum-small")

    def _gsum_repeated(self, rng, i, j, count):
        """(t - a)^k with a non-unit rational root, k up to 20, times a cofactor."""
        a = rng.choice(ROOTS_NON_UNIT)
        factors = [(_linear(a), _band(rng, 6, 20, i, count))]
        extra = ("none", "quadratic", "linear", rng.choice(("quadratic", "linear")))[j % 4]
        if extra == "quadratic":
            factors.append((rng.choice(QUADRATICS[:3]), 1))
        elif extra == "linear":
            b = rng.choice([r for r in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))
                            if r != a])
            factors.append((_linear(b), 1))
        return self._gsum(_numerator(rng, rng.randint(0, 2)), factors, "gsum-repeated")

    def _gsum_binomial(self, rng, i, j, count):
        """The c * (t+1)^-k family at moderate k."""
        c, k = rand_fraction(rng), _band(rng, 10, 40, i, count)
        den = _prod([(1, 1)] * k)
        text = f"{c}*(t+1)^-{k}" if c > 0 else f"-{-c}*(t+1)^-{k}"
        return Task("gsum-binomial", text, oracles.finite_residue_total([c], den),
                    {"num": [c], "den": den})

    def _expand(self, rng, kind, place, pole, order, cofactor):
        num = _numerator(rng, rng.randint(0, 2))
        text, den = _rational(num, [(place, pole), (cofactor, 1)])
        return Task(kind, text, None,
                    {"num": num, "den": den, "place": [Fraction(c) for c in place],
                     "place_text": render_upoly(place), "order": order})

    def _expand_linear(self, rng, i, j, count):
        """Degree-1 place t - a, pole order up to 20, expansion order 100..300."""
        a = rng.choice(ROOTS_NON_UNIT)
        b = rng.choice([r for r in ROOTS_NON_UNIT if r != a])
        return self._expand(rng, "expand-linear", _linear(a), _band(rng, 1, 20, j, count),
                            _band(rng, 100, 300, i, count), _linear(b))

    def _expand_quadratic(self, rng, i, j, count):
        """Degree-2 place over Q[x]/(q), expansion order 12..32."""
        q = rng.choice(QUADRATICS)
        b = rng.choice(ROOTS_NON_UNIT)
        return self._expand(rng, "expand-quadratic", q, 1 + j % 2,
                            _band(rng, 12, 32, i, count), _linear(b))

    def prepare(self, task):
        return task

    def run(self, task):
        rf = parser.parse_rational_function(task.text)
        if task.kind.startswith("gsum"):
            return residue.global_residue_sum(rf)
        place_poly = parser.parse_rational_function(task.data["place_text"]).num.monic()
        return residue.expand_at_place(rf, residue.Place.finite(place_poly),
                                       task.data["order"])

    def check(self, task, answer):
        if task.kind.startswith("gsum"):
            total, report = answer
            inf = [res for place, res in report if place.is_infinite]
            if total != 0:
                return f"global sum {total}, expected 0"
            if inf != [-task.expected]:
                return f"residue at infinity {inf}, oracle {-task.expected}"
            return None
        _, series = answer
        coeffs = {e: (c,) if isinstance(c, (int, Fraction)) else tuple(c.coeffs)
                  for (e,), c in series.coeffs.items()}
        d = task.data
        return oracles.expansion_mismatch(d["num"], d["den"], d["place"], d["order"],
                                          coeffs, series.order)


WORKLOADS = {w.name: w for w in (ResidueBatch(), CrossCheck(), Series1D())}
