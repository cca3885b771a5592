"""No cache outlives a call: `functools.cache`, `lru_cache` and
`cached_property` may be made inside a function body, where the cache is
dropped on return, but never at module or class level.  A lasting cache
hands back results built over an earlier object that is merely equal to
the one asked about, such as an operator over an equal copy of a field."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "resym"
CACHES = {"cache", "lru_cache", "cached_property"}


def _run_at_definition(node):
    """The nodes below `node` that run when the module or class is built:
    function and lambda bodies are left out, their decorators and defaults
    are kept."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            kept = getattr(child, "decorator_list", []) + child.args.defaults
            kept += [d for d in child.args.kw_defaults if d is not None]
            for sub in kept:
                yield sub
                yield from _run_at_definition(sub)
            continue
        yield child
        yield from _run_at_definition(child)


def lasting_caches(source: str):
    """Line numbers where a cache is named outside every function body."""
    return [node.lineno for node in _run_at_definition(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in CACHES
            or isinstance(node, ast.Attribute) and node.attr in CACHES]


def test_the_guard_tells_lasting_from_per_call_caches():
    lasting = ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x\n",
               "from functools import cache\n@cache\ndef f(x): return x\n",
               "from functools import cached_property\nclass A:\n"
               "    @cached_property\n    def p(self): return 1\n",
               "from functools import cache\nclass A:\n    table = cache(abs)\n",
               "from functools import cache\ng = cache(abs)\n",
               "from functools import cache\ndef f(g=cache(abs)): return g\n")
    for source in lasting:
        assert lasting_caches(source), source
    per_call = ("from functools import cache\ndef f(xs):\n"
                "    g = cache(abs)\n    return [g(x) for x in xs]\n",
                "from functools import cache\nclass A:\n    def m(self, k):\n"
                "        return cache(lambda j: j * k)(2)\n",
                "import functools\nh = lambda xs: functools.cache(abs)(xs)\n")
    for source in per_call:
        assert not lasting_caches(source), source


def test_no_cache_outlives_a_call():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    found = [f"{path.name}:{line}" for path in paths
             for line in lasting_caches(path.read_text(encoding="utf-8"))]
    assert not found
