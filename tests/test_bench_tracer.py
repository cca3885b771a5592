"""The benchmark tracer's bindings still exist in the library.

`bench/run.py --trace 1` patches the names listed in `bench/tracer.py`;
a rename in `src/resym/` would make that run fail or miss a span.  The
first test installs and uninstalls the tracer without running a workload;
the second runs each workload traced, which fails on a wrong answer, on a
declared span that records no calls and on a span predicted to stay at
zero that records some.  The third runs `bench/selftest.py`, which shows
that the benchmark's answer checks reject perturbed answers.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    # exec the source so no bytecode cache is written under bench/
    module = types.ModuleType("resym_bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_bindings_resolve_and_restore():
    tracer = load_tracer()
    tables = {**tracer.SPANS, **tracer.COUNTS}
    names = {module for sites in tables.values() for module, _ in sites}
    modules = {name: importlib.import_module(f"resym.{name}") for name in names}

    originals = {}
    for name, sites in tables.items():
        for module, path in sites:
            owner, attr = tracer._owner(modules, module, path)
            assert attr in owner.__dict__, f"{name}: {module}.{path} is not bound there"
            originals[(module, path)] = (owner, attr, owner.__dict__[attr])
        # every alias must be the object the tracer wraps for the first site
        first = originals[(sites[0][0], sites[0][1])][2]
        for module, path in sites[1:]:
            assert originals[(module, path)][2] is first, f"{name}: {module}.{path} differs"

    t = tracer.Tracer(modules)
    try:
        t.install()
        for owner, attr, original in originals.values():
            assert owner.__dict__[attr] is not original, f"{attr} was not patched"
    finally:
        t.uninstall()
    for owner, attr, original in originals.values():
        assert owner.__dict__[attr] is original, f"{attr} was not restored"


def test_traced_runs_are_clean():
    # spans go to the git-ignored .bench_out/; no bytecode is written under bench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for workload in ("residue-batch", "cross-check", "series-1d"):
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                               workload, "--seed", "1", "--trace", "1"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (workload, proc.stdout[-2000:], proc.stderr[-2000:])


def test_bench_selftest_passes():
    # no bytecode is written under bench/, and the self-test writes no files
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
