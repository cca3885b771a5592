"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a pass line with its runtime (visible under `pytest -s`);
time limits are asserted where the criterion states one.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from resym import (DifferentialForm, ExtensionField, LaurentPoly, PolyQ,
                   nodal_factorization_check, residue_form, residue_monomial_det)
from resym.verify import PROPERTIES, monomial_det_law, rand_fraction


class _Clock:
    def __init__(self, number: int, label: str, limit: float = None):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{self.label}]: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, \
                f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"
        return False


def test_criterion_01_one_dim_anchor():
    with _Clock(1, "res t^i dt = delta(i,-1)", limit=1.0):
        assert all(PROPERTIES["res-t^i"](None, 1).values())


def test_criterion_02_local_formula_n2():
    with _Clock(2, "n=2 monomial determinant law", limit=30.0):
        columns = [(a, b, -a - b) for a in range(-2, 3) for b in range(-2, 3)
                   if -2 <= -a - b <= 2]
        assert len(columns) == 19
        checked = 0
        for col1, col2 in product(columns, columns):
            rows = [[col1[p], col2[p]] for p in range(3)]
            assert monomial_det_law(rows, Fraction(2, 3))
            checked += 1
        assert checked == 361
        rng = random.Random(9001)
        violations = 0
        while violations < 100:
            rows = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(3)]
            if all(sum(rows[p][i] for p in range(3)) == 0 for i in range(2)):
                continue
            beta = rand_fraction(rng, nonzero=True)
            assert monomial_det_law(rows, beta) and residue_monomial_det(rows, beta) == 0
            violations += 1


def test_criterion_03_three_path_agreement():
    with _Clock(3, "closed = zigzag = signed phi_c", limit=60.0):
        rng = random.Random(9002)
        for n in (1, 2):
            for _ in range(100):
                assert PROPERTIES["zigzag"](rng, n)
            for _ in range(100):
                assert PROPERTIES["phic"](rng, n)


def test_criterion_04_commutator_formula():
    with _Clock(4, "commutator formula = phi o epsilon"):
        rng = random.Random(9003)
        for n in (1, 2):
            for _ in range(100):
                assert PROPERTIES["commutator"](rng, n)
        for _ in range(25):
            assert PROPERTIES["commuting"](rng, 1) is not False  # None: zero draw


def test_criterion_05_homological_identities():
    with _Clock(5, "b2, ce2, d2, H2, dH+Hd=id, chain map"):
        rng = random.Random(9004)
        for _ in range(50):
            n = rng.choice([1, 2])
            assert PROPERTIES["b2"](rng, n)
            assert PROPERTIES["ce2"](rng, n)
            # levels 2..n+1 carry d^2 = 0, levels 0..n-1 carry H^2 = 0
            for lo, hi in ((2, n + 1), (0, n - 1), (0, n + 1)):
                level = rng.randint(lo, hi)
                assert all(PROPERTIES["tower"](rng, n, level=level).values())
            assert PROPERTIES["chainmap"](rng, n)


def test_criterion_06_trace_axioms():
    with _Clock(6, "T1 dense, T3 shifts, T5 cyclic"):
        rng = random.Random(9005)
        for n in (1, 2):
            for _ in range(50):
                assert all(PROPERTIES["trace"](rng, n, terms=3).values())


def test_criterion_07_extension_fields():
    with _Clock(7, "residues over Q[x]/(x^2+1)"):
        gauss = ExtensionField(PolyQ((1, 0, 1)))
        tvar = LaurentPoly.variable(1, 1, gauss)
        tinv = LaurentPoly.monomial(1, (-1,), 1, gauss)
        assert residue_form(DifferentialForm(tinv, [tvar])) == 2
        xtinv = LaurentPoly.monomial(1, (-1,), gauss.generator, gauss)
        assert residue_form(DifferentialForm(xtinv, [tvar])) == 0


def test_criterion_08_global_residue_theorem():
    with _Clock(8, "sum of residues is zero on P1", limit=30.0):
        rng = random.Random(9006)
        quadratics = 0
        for k in range(50):
            wants_quadratic = k % 4 == 0
            quadratics += wants_quadratic
            assert PROPERTIES["global"](rng, 1, quadratic=wants_quadratic)
        assert quadratics >= 10


def test_criterion_09_nodal_cubic():
    with _Clock(9, "nodal cubic factorization at order 12", limit=1.0):
        assert nodal_factorization_check(12) is True


def test_criterion_10_invariance():
    with _Clock(10, "idempotent shifts and coordinate change"):
        rng = random.Random(9007)
        for n in (1, 2):
            sweep = [(m,) * n for m in range(-3, 4)]
            for _ in range(10):
                assert PROPERTIES["shift"](rng, n, thresholds=sweep)
        passed = 0
        while passed < 50:
            ok = PROPERTIES["coord"](rng, 1)
            if ok is None:
                continue
            assert ok
            passed += 1


def test_criterion_11_cyclic_vanishing():
    with _Clock(11, "phi((1 - t) z) = 0 on cycles"):
        rng = random.Random(9008)
        for n in (1, 2):
            for _ in range(50):
                assert PROPERTIES["cyclic"](rng, n)
