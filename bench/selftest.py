"""Self-test of the benchmark's answer checks.

  python3 bench/selftest.py

For each workload it runs a few generated tasks through the library, shows
that the check accepts the real answer, then perturbs the answer in each
way a wrong result could look and shows that the check rejects it.  It
also pins the oracles to hand-computed values.  Exit code 0 means every
check behaved.
"""

from __future__ import annotations

import copy
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workloads.bind(run.load_library())
    failures = []
    count = 0

    def expect(ok: bool, what: str):
        nonlocal count
        count += 1
        if not ok:
            failures.append(what)

    # Oracles against values worked by hand.
    one = Fraction(1)
    jac = oracles.jacobian([{(1,): one}], 1, 1)                      # d(t)
    expect(oracles.jacobian_residue({(-1,): one}, jac, 1, False) == 1, "res t^-1 dt = 1")
    jac = oracles.jacobian([{(2, 0): one}, {(0, 3): one}], 2, 2)      # d(t1^2) ^ d(t2^3)
    expect(oracles.jacobian_residue({(-2, -3): one}, jac, 2, False) == 6, "det law 2*3")
    jac = oracles.jacobian([{(1, 0): one}], 1, 2)                     # over Q[x]/(x^2+1)
    expect(oracles.jacobian_residue({(-1, 0): one}, jac, 1, True) == 2, "Tr(1) = 2")
    expect(oracles.jacobian_residue({(-1, 2): one}, jac, 1, True) == -2, "Tr(x^2) = -2")
    expect(oracles.finite_residue_total([1], [0, 1]) == 1, "res_0 1/t = 1")
    expect(oracles.finite_residue_total([1], [1, 0, 1]) == 0, "1/(t^2+1) sums to 0")

    for name, workload in workloads.WORKLOADS.items():
        block = workload.generate(random.Random(f"selftest:{name}"))
        tasks = sorted(block, key=lambda t: (t.data.get("n", 0), t.data.get("order", 0)))
        seen = set()
        for task in tasks:
            if task.kind in seen:
                continue
            seen.add(task.kind)
            answer = workload.run(workload.prepare(task))
            expect(workload.check(task, answer) is None, f"{name} {task.kind}: real answer")
            for label, wrong in perturbations(name, task, answer):
                try:
                    rejected = workload.check(task, wrong) is not None
                except Exception:  # a crash on a malformed answer also rejects it
                    rejected = True
                expect(rejected, f"{name} {task.kind}: {label} accepted")

    for what in failures:
        print(f"selftest FAIL: {what}")
    print(f"selftest: {count - len(failures)}/{count} checks behaved")
    return 1 if failures else 0


def perturbations(name, task, answer):
    if name == "residue-batch":
        yield "residue + 1", answer + 1
        yield "residue * -1", -answer if answer else answer + 1
    elif name == "cross-check":
        closed, zigzag, conn = answer
        yield "phi_hh_closed + 1", (closed + 1, zigzag, conn)
        yield "phi_hh_zigzag + 1", (closed, zigzag + 1, conn)
        yield "phi_c + 1", (closed, zigzag, conn + 1)
        if conn:
            yield "phi_c sign flipped", (closed, zigzag, -conn)
    elif task.kind.startswith("gsum"):
        total, report = answer
        yield "total + 1", (total + 1, report)
        bumped = [(place, res + 1 if place.is_infinite else res) for place, res in report]
        yield "residue at infinity + 1", (total, bumped)
    else:
        field, series = answer
        low = min(series.coeffs)
        bumped = copy.copy(series)
        bumped.coeffs = dict(series.coeffs)
        bumped.coeffs[low] = bumped.coeffs[low] + 1
        yield "lowest coefficient + 1", (field, bumped)
        high = copy.copy(series)
        high.coeffs = dict(series.coeffs)
        del high.coeffs[max(series.coeffs)]
        yield "top coefficient dropped", (field, high)
        short = copy.copy(series)
        short.order = series.order - 1
        yield "certified order short by one", (field, short)


if __name__ == "__main__":
    sys.exit(main())
