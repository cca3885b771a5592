"""Chain-level homological algebra over the windowed operator algebra.

Implements the Hochschild and Chevalley-Eilenberg differentials, the
antisymmetrization comparison maps, the graded module tower N^p indexed by
component labels in {+,-,0}^n with its differential and contracting
homotopy, and the three residue functionals built from them: the closed
product formula, the staircase evaluation through the homotopy, and the
excision-style iterated connecting map.  All three must agree (up to the
documented sign) and the test suite pins that down exactly.

Chains are formal sums with exact scalar coefficients; tensor slots are
canonical WindowedOperators, so like terms merge structurally.  Zero
testing is genuinely semantic: slots are expanded over a computed linear
basis of the operators involved, which resolves cancellations that are
invisible term-by-term (Jacobi identities, resolutions of the identity).
The coordinates that basis is computed from come from
`operators.grid_coordinates`, so this module never sees the cell grid.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import prod
from operator import matmul

from .errors import (DecompositionError, DimensionMismatch, FieldMismatch,
                     MembershipError, NotACycle)
from .laurent import DifferentialForm, _merge, _scale, _sum
# Evaluators call operators.tate_trace through the module so that a
# replacement of the module attribute (bench/tracer.py) is seen.
from . import operators
from .operators import (MINUS, PLUS, GoodIdempotents, WindowedOperator,
                        grid_coordinates, ideal_member, mul_op)
from .scalars import render_scalar

ZERO = "0"


def sign_of(symbol: str) -> int:
    """(-1)^s for s in {+,-}: +1 for '+', -1 for '-'."""
    if symbol == PLUS:
        return 1
    if symbol == MINUS:
        return -1
    raise ValueError(f"not a sign symbol: {symbol}")


def _opposite(symbol: str) -> str:
    return MINUS if symbol == PLUS else PLUS


def label_degree(label) -> int:
    """deg(s_1..s_n) = 1 + #{i : s_i = 0}; the empty label (level 0) gives 0."""
    if label is None:
        return 0
    return 1 + sum(1 for s in label if s == ZERO)


def labels_of_degree(dim: int, degree: int):
    return [lab for lab in product((PLUS, MINUS, ZERO), repeat=dim)
            if label_degree(lab) == degree]


def _signed_permutations(items):
    """(sign, permuted tuple) for every permutation of `items`, in the order
    of itertools.permutations: putting the i-th remaining item next costs
    i transpositions."""
    items = tuple(items)
    if not items:
        yield 1, ()
        return
    for i, first in enumerate(items):
        for sign, rest in _signed_permutations(items[:i] + items[i + 1:]):
            yield (-sign if i % 2 else sign), (first,) + rest


def _bracket_terms(slots):
    """(sign, [x_i, x_j], the other slots in order) for each i < j with a
    nonzero bracket; the sign is (-1)^(i+j)."""
    r = len(slots)
    for i in range(r):
        for j in range(i + 1, r):
            bracket = slots[i].commutator(slots[j])
            if not bracket.is_zero():
                yield (-1) ** (i + j), bracket, slots[:i] + slots[i + 1:j] + slots[j + 1:]


class _ChainBase:
    """Formal-sum plumbing shared by the chain classes, `_set` and `__eq__`
    included.  Every slot but the last, `terms`, is a shape field (dim,
    field, level, degree); two chains are equal when their types, shape
    fields and terms are."""

    __slots__ = ()

    def _set(self, *shape_and_terms):
        """Store the shape fields, then the merged terms; checks nothing."""
        for name, value in zip(self.__slots__, shape_and_terms):
            setattr(self, name, value)
        return self

    @classmethod
    def _of(cls, *shape_and_terms):
        """A chain of already merged terms, through the class's `_set`."""
        return object.__new__(cls)._set(*shape_and_terms)

    def _shape(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__[:-1])

    @staticmethod
    def _check_slots(dim: int, field, slots):
        """Refuse outside input whose slots act on another algebra."""
        for slot in slots:
            if slot.dim != dim or slot.field != field:
                raise FieldMismatch("slot operator over a different algebra")

    def _like(self, terms):
        return self._of(*self._shape(), terms)

    def is_empty(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other._shape() == self._shape()
                and other.terms == self.terms)

    def __add__(self, other):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise DimensionMismatch("incompatible chains")
        return self._like(_sum(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        return self._like(_scale(self.terms, self.field.coerce(scalar)))


class HochschildChain(_ChainBase):
    """Degree-r chain: formal sum of tensors (a_0, a_1, .., a_r) of operators.

    `HochschildChain(...)` checks, coerces and merges outside input, then
    hands the merged terms to `_set`; every builder of this module,
    `hkr_antisymmetrize` included, hands its merged terms to `_set` directly.
    `terms` maps tensors of `degree + 1` nonzero operators over (dim, field)
    to nonzero elements of `field`.
    """

    __slots__ = ("dim", "field", "degree", "terms")

    def __init__(self, dim: int, field, degree: int, terms=()):
        cleaned: dict = {}
        for tensor, coeff in (terms.items() if isinstance(terms, dict) else terms):
            tensor = tuple(tensor)
            if len(tensor) != degree + 1:
                raise DimensionMismatch("tensor length does not match the degree")
            coeff = field.coerce(coeff)
            if not coeff or any(slot.is_zero() for slot in tensor):
                continue
            self._check_slots(dim, field, tensor)
            _merge(cleaned, tensor, coeff)
        self._set(dim, field, degree, cleaned)

    @classmethod
    def from_tensor(cls, slots, coeff=1):
        slots = tuple(slots)
        return cls(slots[0].dim, slots[0].field, len(slots) - 1, [(slots, coeff)])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for tensor, coeff in sorted(self.terms.items(),
                                    key=lambda kv: tuple(s.sort_key() for s in kv[0])):
            body = " (x) ".join(f"[{s.render()}]" for s in tensor)
            bits.append(f"({render_scalar(coeff)}) {body}")
        return " + ".join(bits)


class LieChain(_ChainBase):
    """Formal sum m (x) f_1 ^ .. ^ f_r, wedge slots kept sorted with sign.

    `m` is None for trivial coefficients.  `LieChain(...)` checks the
    arity and the algebra of `m` and the slots, coerces, drops zero terms,
    sorts each wedge (a repeated slot cancels it to zero) and merges, then
    hands the terms to `_set`; `+`, `-` and `scale` merge already sorted
    wedges and go to `_set` directly.
    """

    __slots__ = ("dim", "field", "degree", "terms")

    def __init__(self, dim: int, field, degree: int, terms=()):
        cleaned: dict = {}
        for (m, slots), coeff in (terms.items() if isinstance(terms, dict) else terms):
            slots = tuple(slots)
            if len(slots) != degree:
                raise DimensionMismatch("wedge arity does not match the degree")
            coeff = field.coerce(coeff)
            if not coeff or any(s.is_zero() for s in slots):
                continue
            if m is not None and m.is_zero():
                continue
            self._check_slots(dim, field, slots if m is None else (m, *slots))
            normal = _wedge_sort(slots)
            if normal is None:
                continue
            sign, sorted_slots = normal
            _merge(cleaned, (m, sorted_slots), coeff * sign)
        self._set(dim, field, degree, cleaned)

    @classmethod
    def from_parts(cls, m, slots, coeff=1):
        slots = tuple(slots)
        probe = m if m is not None else slots[0]
        return cls(probe.dim, probe.field, len(slots), [((m, slots), coeff)])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (m, slots), coeff in sorted(
                self.terms.items(),
                key=lambda kv: tuple(s.sort_key() for s in kv[0][1])):
            head = f"[{m.render()}] (x) " if m is not None else ""
            body = " ^ ".join(f"[{s.render()}]" for s in slots)
            bits.append(f"({render_scalar(coeff)}) {head}{body}")
        return " + ".join(bits)


def _wedge_sort(slots):
    """Sort wedge slots canonically; None on a repeated slot."""
    arr = list(slots)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1].sort_key() > arr[j].sort_key():
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return None
    return sign, tuple(arr)


class LabeledChain(_ChainBase):
    """Chain in C_r(A, N^p): tensors carrying a component label in {+,-,0}^n.

    The module slot of every term must lie in the ideal intersection its
    label prescribes (a 0 meaning both the + and the - ideal on that axis);
    construction enforces this, which is what catches sign-convention bugs
    early.  Level 0 terms carry the label None and are unconstrained.

    There is one validation path.  `LabeledChain(...)` checks the shapes,
    levels and slot algebras of outside input, coerces coefficients, drops
    zero terms and merges; `_set` then checks each distinct (module slot,
    label) pair of the merged terms once.  `hochschild_b`, `homotopy_H`
    and `n_partial` pass their merged output to `_set`, so their terms are
    checked too.
    """

    __slots__ = ("dim", "field", "level", "degree", "terms")

    def __init__(self, dim: int, field, level: int, degree: int, terms=()):
        cleaned: dict = {}
        for (label, tensor), coeff in (terms.items() if isinstance(terms, dict) else terms):
            tensor = tuple(tensor)
            if len(tensor) != degree + 1:
                raise DimensionMismatch("tensor length does not match the degree")
            if label_degree(label) != level:
                raise DimensionMismatch(f"label {label} is not at level {level}")
            coeff = field.coerce(coeff)
            if not coeff or any(s.is_zero() for s in tensor):
                continue
            self._check_slots(dim, field, tensor)
            _merge(cleaned, (label, tensor), coeff)
        self._set(dim, field, level, degree, cleaned)

    def _set(self, dim: int, field, level: int, degree: int, terms: dict) -> "LabeledChain":
        """Check every module slot against its label, then `_ChainBase._set`.
        `terms` maps (label at `level`, tensor of `degree + 1` nonzero
        operators) to nonzero elements of `field`."""
        check = cache(_validate_label)
        for label, tensor in terms:
            check(tensor[0], label)
        return super()._set(dim, field, level, degree, terms)

    @classmethod
    def from_hochschild(cls, chain: HochschildChain) -> "LabeledChain":
        return cls._of(chain.dim, chain.field, 0, chain.degree,
                       {(None, tensor): c for tensor, c in chain.terms.items()})

    def by_label(self):
        out: dict = {}
        for (label, tensor), coeff in self.terms.items():
            out.setdefault(label, []).append((tensor, coeff))
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (label, tensor), coeff in sorted(
                self.terms.items(),
                key=lambda kv: (kv[0][0] or (), tuple(s.sort_key() for s in kv[0][1]))):
            labeltxt = "".join(label) if label is not None else "()"
            body = " (x) ".join(f"[{s.render()}]" for s in tensor)
            bits.append(f"({render_scalar(coeff)})<{labeltxt}> {body}")
        return " + ".join(bits)


def _validate_label(m: WindowedOperator, label):
    if label is None:
        return
    for axis0, s in enumerate(label):
        axis = axis0 + 1
        if s in (PLUS, ZERO) and not ideal_member(m, axis, PLUS):
            raise MembershipError(f"module slot fails I_{axis}^+ required by label {label}")
        if s in (MINUS, ZERO) and not ideal_member(m, axis, MINUS):
            raise MembershipError(f"module slot fails I_{axis}^- required by label {label}")


# -- semantic zero test ------------------------------------------------------


class _Span:
    """Incremental row echelon over the coefficient field."""

    def __init__(self, field):
        self.field = field
        self.rows: list = []

    def express(self, vec: dict) -> dict:
        combo: dict = {}
        v = dict(vec)
        for k, (pivot, row) in enumerate(self.rows):
            c = v.get(pivot)
            if not c:
                continue
            combo[k] = c
            for idx, rv in row.items():
                nv = v.get(idx, self.field.zero) - c * rv
                if nv:
                    v[idx] = nv
                elif idx in v:
                    del v[idx]
        if v:
            pivot = min(v)
            val = v[pivot]
            row = {idx: x / val for idx, x in v.items()}
            self.rows.append((pivot, row))
            combo[len(self.rows) - 1] = val
        return combo


def _zero_test_entries(chain):
    if isinstance(chain, HochschildChain):
        return [(None, tensor, coeff) for tensor, coeff in chain.terms.items()]
    if isinstance(chain, LabeledChain):
        return [(label, tensor, coeff) for (label, tensor), coeff in chain.terms.items()]
    if isinstance(chain, LieChain):
        entries = []
        for (m, slots), coeff in chain.terms.items():
            head = () if m is None else (m,)
            for sign, permuted in _signed_permutations(slots):
                entries.append((None, head + permuted, coeff * sign))
        return entries
    raise TypeError(f"not a chain: {chain!r}")


def chain_is_zero(chain) -> bool:
    """Exact semantic zero test.

    Expands every tensor slot over a computed linear basis of all operators
    occurring in the chain, so linear relations between differently
    presented slots (e.g. P^+x + P^-x = x) cancel correctly.  Wedge chains
    are compared through their antisymmetrization, which is faithful in
    characteristic zero.
    """
    entries = _zero_test_entries(chain)
    if not entries:
        return True
    ops = []
    op_index: dict = {}
    for _, tensor, _ in entries:
        for slot in tensor:
            if slot not in op_index:
                op_index[slot] = len(ops)
                ops.append(slot)
    span = _Span(chain.field)
    combos = [span.express(v) for v in grid_coordinates(ops)]
    total: dict = {}
    for label, tensor, coeff in entries:
        partial = {(): coeff}
        for slot in tensor:
            combo = combos[op_index[slot]]
            nxt: dict = {}
            for key, c in partial.items():
                for b, cb in combo.items():
                    _merge(nxt, key + (b,), c * cb)
            partial = nxt
            if not partial:
                break
        for key, c in partial.items():
            _merge(total, (label, key), c)
    return not total


def chains_equal(a, b) -> bool:
    return chain_is_zero(a - b)


# -- differentials and comparison maps ---------------------------------------


def hochschild_b(chain, out_boxes=None):
    """The Hochschild differential b.

    b(m (x) a_1 (x) .. (x) a_r) = m a_1 (x) a_2 .. + sum_j (-1)^j m (x) .. a_j a_{j+1} ..
    + (-1)^r a_r m (x) a_1 .. a_{r-1}; module products are operator
    compositions.  Labels, when present, ride along unchanged.

    `out_boxes` maps a label to the box that the next step cuts that
    label's module slots to (`restrict`).  A term whose module slot m that
    cut kills writes only its back term a_r m, by associativity alone: the
    front slot cuts to P(m a_1) = (P m) a_1 = 0 and the inner terms keep m.
    Unnamed labels, and `out_boxes=None` (the cycle check and every other
    caller), get the full differential.

    Each distinct product of two slots is composed once per call, through a
    `cache` of `@`, and each (module slot, box) pair is cut once, through a
    `cache` of `restrict`; both are dropped on return.  The terms merge
    straight into one dict, which goes to the chain's `_set`: a labeled
    output still has every module slot checked against its label.
    """
    labeled = isinstance(chain, LabeledChain)
    if chain.degree < 1:
        raise ValueError("hochschild_b needs degree >= 1")
    mul = cache(matmul)
    cut = cache(WindowedOperator.restrict)
    out: dict = {}

    def put(label, tensor, c):
        _merge(out, (label, tensor) if labeled else tensor, c)

    for key, coeff in chain.terms.items():
        label, tensor = key if labeled else (None, key)
        m, rest = tensor[0], tensor[1:]
        r = len(rest)
        box = None if out_boxes is None else out_boxes.get(label)
        if box is None or cut(m, box):
            # the input slots are nonzero, so only the product slot can be zero
            front = mul(m, rest[0])
            if front:
                put(label, (front,) + rest[1:], coeff)
            for j in range(1, r):
                inner = mul(rest[j - 1], rest[j])
                if inner:
                    put(label, (m,) + rest[:j - 1] + (inner,) + rest[j + 1:],
                        -coeff if j % 2 else coeff)
        back = mul(rest[-1], m)
        if back:
            put(label, (back,) + rest[:-1], -coeff if r % 2 else coeff)
    # degree is the last shape field of both chain types
    return chain._of(*chain._shape()[:-1], chain.degree - 1, out)


def cyclic_t(chain: HochschildChain) -> HochschildChain:
    """Connes' cyclic permutation: a_0 (x) .. (x) a_r -> (-1)^r a_r (x) a_0 (x) .."""
    out: dict = {}
    for tensor, coeff in chain.terms.items():
        r = len(tensor) - 1
        rotated = (tensor[-1],) + tensor[:-1]
        _merge(out, rotated, coeff * (-1) ** r)
    return HochschildChain._of(chain.dim, chain.field, chain.degree, out)


def epsilon(chain: LieChain) -> HochschildChain:
    """Antisymmetrization m (x) a_1 ^..^ a_r -> m (x) sum_pi sgn(pi) a_{pi^-1(1)} .."""
    out: dict = {}
    for (m, slots), coeff in chain.terms.items():
        if m is None:
            raise ValueError("epsilon expects coefficient-bearing Lie chains")
        for sign, permuted in _signed_permutations(slots):
            _merge(out, (m,) + permuted, coeff * sign)
    return HochschildChain._of(chain.dim, chain.field, chain.degree, out)


def i_prime(chain: LieChain) -> LieChain:
    """f_0 (x) f_1 ^..^ f_n -> (-1)^n f_0 ^ f_1 ^..^ f_n with trivial coefficients."""
    out = []
    for (m, slots), coeff in chain.terms.items():
        if m is None:
            raise ValueError("i_prime expects coefficient-bearing Lie chains")
        out.append(((None, (m,) + slots), coeff * (-1) ** len(slots)))
    return LieChain(chain.dim, chain.field, chain.degree + 1, out)


def ce_delta(chain: LieChain) -> LieChain:
    """Chevalley-Eilenberg differential on trivial-coefficient wedges.

    delta(f_0 ^ .. ^ f_r) = sum_{i<j} (-1)^{i+j} [f_i,f_j] ^ f_0 ^ .. (hats
    at i and j) .. ^ f_r, indices starting at 0.
    """
    if chain.degree < 2:
        raise ValueError("ce_delta needs wedge degree >= 2")
    out = []
    for (m, slots), coeff in chain.terms.items():
        if m is not None:
            raise ValueError("ce_delta expects trivial coefficients")
        for sign, bracket, rest in _bracket_terms(slots):
            out.append(((None, (bracket,) + rest), coeff * sign))
    return LieChain(chain.dim, chain.field, chain.degree - 1, out)


def ce_delta_coefficients(chain: LieChain) -> LieChain:
    """CE differential with coefficients in the adjoint module.

    delta(m (x) x_1 ^..^ x_r) = sum_i (-1)^i [x_i, m] (x) .. hat x_i ..
    + sum_{i<j} (-1)^{i+j} m (x) [x_i,x_j] ^ .. ; the signs are the ones
    that make the antisymmetrization a chain map onto the Hochschild side.
    """
    if chain.degree < 1:
        raise ValueError("differential needs degree >= 1")
    out = []
    for (m, slots), coeff in chain.terms.items():
        if m is None:
            raise ValueError("expected coefficient-bearing Lie chains")
        r = len(slots)
        for i in range(1, r + 1):
            acted = slots[i - 1].commutator(m)
            rest = slots[:i - 1] + slots[i:]
            if not acted.is_zero():
                out.append(((acted, rest), coeff * (-1) ** i))
        for sign, bracket, rest in _bracket_terms(slots):
            out.append(((m, (bracket,) + rest), coeff * sign))
    return LieChain(chain.dim, chain.field, chain.degree - 1, out)


def hkr_antisymmetrize(form: DifferentialForm) -> HochschildChain:
    """f_0 df_1 ^..^ df_n -> sum_pi sgn(pi) f_0 (x) f_{pi^-1(1)} (x) .. over
    multiplication operators.  A zero entry gives the empty chain and equal
    entries cancel in the merge; the merged terms go to `_set`."""
    m = mul_op(form.f0)
    ops = [mul_op(g) for g in form.args]
    out: dict = {}
    if m and all(ops):
        signs = {1: form.field.one, -1: -form.field.one}
        for sign, permuted in _signed_permutations(ops):
            _merge(out, (m,) + permuted, signs[sign])
    return HochschildChain._of(form.dim, form.field, form.degree, out)


# -- the labeled tower: differential and contracting homotopy ----------------


def n_partial(chain: LabeledChain) -> LabeledChain:
    """Differential of the labeled tower, one level down.

    For p >= 2 the component at (s_1..s_n) collects, over the axes i with
    s_i in {+,-}, the source component with a 0 at i, signed by the parity
    of the number of zeros strictly to the right of i.  For p = 1 it is the
    signed sum over all {+,-}^n components into level 0.
    """
    p = chain.level
    if not 1 <= p <= chain.dim + 1:
        raise ValueError("n_partial needs level between 1 and n+1")
    out: dict = {}
    if p == 1:
        for (label, tensor), coeff in chain.terms.items():
            _merge(out, (None, tensor), coeff * prod(map(sign_of, label)))
        return LabeledChain._of(chain.dim, chain.field, 0, chain.degree, out)
    for (label, tensor), coeff in chain.terms.items():
        for i, s in enumerate(label):
            if s != ZERO:
                continue
            zeros_right = sum(1 for t in label[i + 1:] if t == ZERO)
            for repl in (PLUS, MINUS):
                target = label[:i] + (repl,) + label[i + 1:]
                _merge(out, (target, tensor), coeff * (-1) ** zeros_right)
    return LabeledChain._of(chain.dim, chain.field, p - 1, chain.degree, out)


def homotopy_H(chain: LabeledChain, idempotents: GoodIdempotents = None,
               targets=None) -> LabeledChain:
    """Contracting homotopy of the labeled tower, one level up.

    Level 0 -> 1: (Hf)_{s_1..s_n} = (-1)^{s_1+..+s_n} P_1^{s_1}..P_n^{s_n} f.
    Level p -> p+1 (p >= 1), with b the longest {+,-} prefix of the target
    label (whose next entry is then a 0):

        (Hf)_{s_1..s_n} = (-1)^{deg} (-1)^{s_1+..+s_b} P_1^{s_1}..P_b^{s_b}
            sum_{g_1..g_{b+1}} (-1)^{g_1+..+g_b} P_{b+1}^{-g_{b+1}}
            f_{g_1..g_{b+1} s_{b+2}..s_n}.

    Together with n_partial it satisfies dH + Hd = id and H^2 = 0.

    `targets` names the labels at level p+1 whose components are built; it
    defaults to all of them.  Each component is computed exactly as for the
    full H, so the result is the full H with its other components dropped.
    A label that is not at level p+1 raises ValueError.

    The projector fronts of the components (P_1^{s_1}..P_n^{s_n} per target
    at level 0, P_1^{s_1}..P_b^{s_b} P_{b+1}^{-g_{b+1}} above) are boxes,
    `idempotents.box(...)`, and a front applied to a module slot is the
    slot's `restrict` to that box: no composition is made.  Each distinct
    (module slot, box) pair is cut once, through a `cache` of `restrict`
    dropped on return; at level 0 every term shares the slot f_0.  The
    terms merge straight into one dict, which goes to `LabeledChain._set`,
    so every module slot is still checked against its label.

    Above level 0 a source term with label g_1..g_{b+1} .. is visited once
    per prefix length b of the targets that read it; all of their boxes lie
    inside the one-axis cut P_{b+1}^{-g_{b+1}}, so a term whose module slot
    that cut kills is skipped before the loop over the targets.
    """
    n = chain.dim
    idempotents = GoodIdempotents(n, chain.field) if idempotents is None else idempotents
    p = chain.level
    if not 0 <= p <= n:
        raise ValueError("homotopy_H needs level between 0 and n")
    labels = labels_of_degree(n, p + 1)
    if targets is None:
        targets = labels
    else:
        targets = list(dict.fromkeys(map(tuple, targets)))
        stray = [label for label in targets if label not in labels]
        if stray:
            raise ValueError(f"targets {stray} are not labels at level {p + 1}")
    cut = cache(WindowedOperator.restrict)
    out: dict = {}
    if p == 0:
        fronts = [(label, prod(map(sign_of, label)), idempotents.box(label))
                  for label in targets]
        for (_, tensor), coeff in chain.terms.items():
            m, rest = tensor[0], tensor[1:]
            for label, sgn, box in fronts:
                op = cut(m, box)
                if op:
                    _merge(out, (label, (op,) + rest), coeff * sgn)
        return LabeledChain._of(n, chain.field, 1, chain.degree, out)

    by_label = chain.by_label()
    # {(source label, b): [(target, sign, box)]}: the components that read it
    readers: dict = {}
    for target in targets:
        # a label at level p+1 >= 2 has a 0; b is the length of its {+,-} prefix
        b = target.index(ZERO)
        for gammas in product((PLUS, MINUS), repeat=b + 1):
            source = gammas + target[b + 1:]
            if source not in by_label:
                continue
            sign = (-1) ** (p + 1)
            for i in range(b):
                sign *= sign_of(target[i]) * sign_of(gammas[i])
            box = idempotents.box(target[:b] + (_opposite(gammas[b]),) + (None,) * (n - b - 1))
            readers.setdefault((source, b), []).append((target, sign, box))
    for (source, b), fronts in readers.items():
        # every box of `fronts` lies inside this one-axis cut
        axis_cut = idempotents.window(b + 1, _opposite(source[b]))
        for tensor, coeff in by_label[source]:
            m = tensor[0]
            if not cut(m, axis_cut):
                continue
            for target, sign, box in fronts:
                new_m = cut(m, box)
                if new_m:
                    _merge(out, (target, (new_m,) + tensor[1:]), coeff * sign)
    return LabeledChain._of(n, chain.field, p + 1, chain.degree, out)


# -- residue functionals -----------------------------------------------------


def _evaluator_idempotents(chain, idempotents) -> GoodIdempotents:
    """`idempotents`, or the standard ones when None; refuses a chain whose
    degree is not its dimension n."""
    if chain.degree != chain.dim:
        raise DimensionMismatch(f"need a degree-{chain.dim} chain")
    return GoodIdempotents(chain.dim, chain.field) if idempotents is None else idempotents


def _bracket_factor(axis: int, op: WindowedOperator, idempotents: GoodIdempotents):
    """sum_g (-1)^g P_axis^{-g} op P_axis^{g}; finite window on the axis.
    Each side is a cut of `op` to the projectors' boxes (`restrict`), so no
    composition is made; `phi_hh_closed` caches these per call."""
    plus = idempotents.window(axis, PLUS)
    minus = idempotents.window(axis, MINUS)
    return op.restrict(minus, plus) - op.restrict(plus, minus)


def phi_hh_closed(chain: HochschildChain, idempotents: GoodIdempotents = None):
    """Closed product formula for the degree-n residue functional.

    phi(f_0 (x) .. (x) f_n) = (-1)^n tau(B_1 B_2 .. B_n f_0) where
    B_k = sum_g (-1)^g P_k^{-g} f_k P_k^{g}.  The operand is finite rank for
    windowed slots, so the trace always applies; trace refusals propagate.

    Terms share their work.  Each bracket factor B_k(f) is built once per
    call, through a `cache` that is dropped on return.  The terms
    are grouped by f_0, then by f_n, f_{n-1}, .., f_1 -- the order in which
    the product is composed -- and walked depth first, so a partial product
    B_k .. B_n f_0 shared by several terms is composed once and at most n
    of them are alive at a time.  A branch whose partial product is zero is
    skipped; this is exact, since every later product is zero, tau(0) = 0
    and the trace of the zero operator refuses nothing.
    """
    n = chain.dim
    idempotents = _evaluator_idempotents(chain, idempotents)
    outer = -1 if n % 2 else 1
    bracket = cache(_bracket_factor)
    total = chain.field.zero

    def walk(op, k, terms):
        # `terms` share slot 0 and slots k+1..n; `op` is B_{k+1} .. B_n f_0.
        nonlocal total
        if k == 0:
            # A chain's tensors are distinct, so a leaf holds one term.
            [(_, coeff)] = terms
            total = total + coeff * outer * operators.tate_trace(op)
            return
        for slot, group in _group_by_slot(terms, k).items():
            partial = bracket(k, slot, idempotents) @ op
            if not partial.is_zero():
                walk(partial, k - 1, group)

    for front, group in _group_by_slot(chain.terms.items(), 0).items():
        walk(front, n, group)
    return total


def _group_by_slot(terms, k):
    """{slot operator: [(tensor, coeff) with tensor[k] == slot]}, in order."""
    groups = {}
    for term in terms:
        groups.setdefault(term[0][k], []).append(term)
    return groups


def phi_hh_zigzag(chain: HochschildChain, idempotents: GoodIdempotents = None):
    """Staircase evaluation of the same functional through the homotopy.

    The cycle is embedded at level 0, lifted with H, and pushed along
    alternating Hochschild differentials and homotopies until it reaches
    the trace ideal at level n+1 in degree 0, where the finite-potent trace
    reads off the value.  Requires an honest cycle; agrees with
    phi_hh_closed there.

    Only the staircase components are built: at level p+1 the labels
    {+,-}^{n-p} 0^p.  This is exact, by induction down from the trace.
    The trace reads the single label 0^n at level n+1.  b leaves labels
    alone, and H's component at a staircase label T = s_1..s_{n-p} 0^p
    (its {+,-} prefix has length b = n-p) reads only the source labels
    g_1..g_{n-p+1} 0^{p-1}, which are the staircase at level p.  So no
    other component ever reaches the trace, and each H builds just the
    staircase through its `targets`.

    Each b is handed the one-axis cut P_{n-p+1}^{-g_{n-p+1}} inside which
    the next H reads a staircase label g (`out_boxes`), so it builds no
    front or inner term that H would kill.  The cycle check runs the full b.
    """
    n = chain.dim
    idempotents = _evaluator_idempotents(chain, idempotents)
    if not chain_is_zero(hochschild_b(chain)):
        raise NotACycle("phi_hh_zigzag needs b(chain) = 0")

    def staircase(p):
        return [signs + (ZERO,) * p for signs in product((PLUS, MINUS), repeat=n - p)]

    lifted = homotopy_H(LabeledChain.from_hochschild(chain), idempotents,
                        targets=staircase(0))
    for p in range(1, n + 1):
        cuts = {label: idempotents.window(n - p + 1, _opposite(label[n - p]))
                for label in staircase(p - 1)}
        lifted = homotopy_H(hochschild_b(lifted, cuts), idempotents, targets=staircase(p))
    total = chain.field.zero
    for (_, tensor), coeff in lifted.terms.items():
        total = total + coeff * operators.tate_trace(tensor[0])
    return total


def lambda_toeplitz(op: WindowedOperator) -> WindowedOperator:
    """The Toeplitz-style splitting representative x -> x^+ = P_n^+ x.

    The complement P_n^- x is checked against the discrete ideal on the
    last axis, certifying x = x^+ + x^- with the parts in I_n^{+/-}; for
    windowed operators this cannot fail and the guard is an assertion.
    """
    n = op.dim
    idempotents = GoodIdempotents(n, op.field)
    plus_part = op.restrict(idempotents.window(n, PLUS))
    minus_part = op.restrict(idempotents.window(n, MINUS))
    if not ideal_member(minus_part, n, MINUS):
        raise DecompositionError("complementary part escapes I_n^-")
    if not ideal_member(plus_part, n, PLUS):
        raise DecompositionError("positive part escapes I_n^+")
    return plus_part


def psi(chain: HochschildChain, level: int, idempotents: GoodIdempotents = None) -> HochschildChain:
    """One excision-style connecting step.

    Psi(a_0 (x) .. (x) a_s) = (-1)^s (sum_g (-1)^g P_s^{-g} a_s P_s^{g}) a_0
    (x) a_1 (x) .. (x) a_{s-1} at level s.  The module slot must lie in the
    deep ideal A^s (all axes beyond s, both signs) and the output is
    checked to land in A^{s-1}; a violation signals a convention bug.
    """
    n = chain.dim
    s = level
    if not 1 <= s <= n:
        raise ValueError("level out of range")
    if chain.degree != s:
        raise DimensionMismatch("chain degree must equal the level")
    idempotents = GoodIdempotents(n, chain.field) if idempotents is None else idempotents

    def check_deep(op, start_axis, what):
        for axis in range(start_axis, n + 1):
            for sign in (PLUS, MINUS):
                if not ideal_member(op, axis, sign):
                    raise MembershipError(
                        f"{what} slot fails I_{axis}^{sign} membership")

    out: dict = {}
    sgn = -1 if s % 2 else 1
    for tensor, coeff in chain.terms.items():
        check_deep(tensor[0], s + 1, "input module")
        new_m = _bracket_factor(s, tensor[s], idempotents) @ tensor[0]
        if new_m.is_zero():
            continue
        check_deep(new_m, s, "output module")
        _merge(out, (new_m,) + tensor[1:s], coeff * sgn)
    return HochschildChain._of(n, chain.field, s - 1, out)


def phi_c(chain: HochschildChain, idempotents: GoodIdempotents = None):
    """Iterated connecting-map functional: tau after n applications of Psi.

    Satisfies phi_c = (-1)^{n(n-1)/2} phi_hh_closed at chain level.
    """
    n = chain.dim
    idempotents = _evaluator_idempotents(chain, idempotents)
    current = chain
    for s in range(n, 0, -1):
        current = psi(current, s, idempotents)
    total = chain.field.zero
    for tensor, coeff in current.terms.items():
        total = total + coeff * operators.tate_trace(tensor[0])
    return total


def commutator_formula(chain: LieChain, idempotents: GoodIdempotents = None):
    """Cascading-commutator functional on coefficient-bearing Lie chains.

    f_0 (x) f_1 ^..^ f_n -> (-1)^n tau sum_sigma sgn(sigma) sum_g
    (-1)^{g_1+..+g_n} (P_1^{-g_1} ad(f_{sigma^-1(1)}) P_1^{g_1}) ..
    (P_n^{-g_n} ad(f_{sigma^-1(n)}) P_n^{g_n}) f_0, with ad(f) = [f, -].
    Agrees with phi_hh_closed after antisymmetrization.
    """
    n = chain.dim
    idempotents = _evaluator_idempotents(chain, idempotents)
    total = chain.field.zero
    outer = -1 if n % 2 else 1
    for (m, slots), coeff in chain.terms.items():
        if m is None:
            raise ValueError("commutator_formula expects coefficient-bearing chains")
        for psign, fs in _signed_permutations(slots):
            for gammas in product((PLUS, MINUS), repeat=n):
                gsign = 1
                op = m
                for k in range(n, 0, -1):
                    g = gammas[k - 1]
                    gsign *= sign_of(g)
                    inner = op.restrict(idempotents.window(k, g))
                    op = fs[k - 1].commutator(inner).restrict(
                        idempotents.window(k, _opposite(g)))
                    if op.is_zero():
                        break
                if op.is_zero():
                    continue
                total = total + coeff * (outer * psign * gsign) * operators.tate_trace(op)
    return total
