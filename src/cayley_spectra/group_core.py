"""Finite groups as element coordinates with a vectorised product, plus conjugacy data.

Groups are built from permutation generators in cycle notation, from a small
catalogue of named families, or as direct products.  Elements are integer
indices with the identity at 0; for generated groups the indexing is the
breadth-first discovery order from the identity, applying generators in input
order, so every downstream output is reproducible.

No multiplication table is stored.  Each element is a row of small integers:
permutation images, residues, or (i, j) pairs for the dihedral and quaternion
families.  A product of index arrays combines the rows and finds each result
again by its key (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, ch. 4).  A direct product indexes the pair (a, b)
as a * |B| + b and multiplies each factor on its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, isqrt, lcm, prod
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import shown

DEFAULT_GROUP_CAP = 5040
# the refusal budget of table and sweep jobs: bytes the (k, k, k) int64 class
# structure-constant tensor, a sweep's estimated peak, or the element rows of
# a permutation group at the size cap may take
TABLE_BYTE_BUDGET = 256 << 20
# Bytes of one chunk of every streamed loop (_chunks): a sweep's block of
# int64 sums, an oracle's stack of matrices or rows, a table lift's or
# certificate's classes.  A chunk and the temporaries of its checks stay in a
# core's cache, and below glibc's 128 KiB mmap threshold the smaller
# temporaries are reused from the heap, not mapped afresh per chunk.  Cold
# sweeps of dihedral(22), alternating(7) and symmetric(6) together ran
# fastest at 512 KiB of the sizes 256 KiB to 2 MiB tried, on a 2-core x86-64
# machine with 2 MiB of L2 cache per core; the table engine ran as fast at
# 512 KiB as at 4 MiB.
CHUNK_BYTES = 512 << 10
# results per step of Group.product; a permutation product on d points holds
# about 16 d bytes of temporaries per result
_PRODUCT_BLOCK = 1 << 15
# key spaces up to this size are looked up in a dense key -> index array
_DENSE_KEYS = 1 << 20
# a Group keeps the power walks of all its elements when they fit in this many powers
_WALK_TABLE = 1 << 15

_FAMILIES = (
    "cyclic",
    "dihedral",
    "symmetric",
    "alternating",
    "quaternion",
    "generalized-quaternion",
    "elementary-abelian",
)

__all__ = [
    "DEFAULT_GROUP_CAP",
    "TABLE_BYTE_BUDGET",
    "ClassData",
    "Group",
    "GroupSpec",
    "build_group",
    "conjugacy_classes",
    "element_order",
    "exponent",
    "parse_permutation",
    "power_of",
]


def _chunks(count: int, item_bytes: int) -> Iterator[slice]:
    """Consecutive slices covering range(count), each of as many items of item_bytes as fit in CHUNK_BYTES (at least one)."""
    step = max(1, CHUNK_BYTES // item_bytes)
    return (slice(s, s + step) for s in range(0, count, step))


# ---------------------------------------------------------------------------
# group specifications


@dataclass(frozen=True)
class GroupSpec:
    """Declarative description of a finite group."""

    kind: str  # "permutation-generators" | "named-family" | "direct-product"
    generators: tuple[str, ...] = ()
    family: str = ""
    params: tuple[int, ...] = ()
    factors: tuple["GroupSpec", ...] = ()

    @staticmethod
    def permutation(generators: Sequence[str]) -> "GroupSpec":
        return GroupSpec(kind="permutation-generators", generators=tuple(generators))

    @staticmethod
    def named(family: str, *params: int) -> "GroupSpec":
        return GroupSpec(kind="named-family", family=family, params=tuple(params))

    @staticmethod
    def product(*factors: "GroupSpec") -> "GroupSpec":
        if len(factors) < 2:
            raise ValueError("direct product needs at least two factors")
        return GroupSpec(kind="direct-product", factors=tuple(factors))

    @staticmethod
    def from_json(obj) -> "GroupSpec":
        """Parse a spec from decoded JSON (dict or shorthand string).

        A spec nested past the interpreter's recursion limit is refused with
        ValueError, as any other malformed spec is.
        """
        try:
            return _spec_from_json(obj)
        except RecursionError:
            raise ValueError("group spec is nested too deeply") from None

    def describe(self) -> str:
        if self.kind == "permutation-generators":
            return "perm[" + ",".join(self.generators) + "]"
        if self.kind == "named-family":
            return f"{self.family}({','.join(str(p) for p in self.params)})"
        return "product(" + ",".join(f.describe() for f in self.factors) + ")"


def _spec_from_json(obj) -> GroupSpec:
    if isinstance(obj, str):
        return _parse_spec_string(obj)
    if isinstance(obj, dict):
        if "generators" in obj:
            gens = obj["generators"]
            if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
                raise ValueError("group.generators must be a list of cycle strings")
            return GroupSpec.permutation(gens)
        if "family" in obj:
            params = obj.get("params", [])
            if not isinstance(params, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in params
            ):
                raise ValueError("group.params must be a list of integers")
            return GroupSpec.named(str(obj["family"]), *params)
        if "product" in obj:
            factors = obj["product"]
            if not isinstance(factors, list) or len(factors) < 2:
                raise ValueError("group.product must list at least two factor specs")
            return GroupSpec.product(*(_spec_from_json(f) for f in factors))
        raise ValueError("group spec dict needs 'generators', 'family' or 'product'")
    raise ValueError(f"cannot parse group spec from {type(obj).__name__}")


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in group spec {shown(s)}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError(f"unbalanced parentheses in group spec {shown(s)}")
    parts.append("".join(cur))
    return parts


def _parse_spec_string(s: str, whole: Optional[str] = None) -> GroupSpec:
    """The spec of the shorthand s; whole is the spec string s came from, named when a product's factor is empty."""
    s = s.strip()
    whole = s if whole is None else whole
    bracket = re.fullmatch(r"perm\[(.*)\]", s)
    if bracket:
        return GroupSpec.permutation([p.strip() for p in _split_top_level(bracket.group(1))])
    m = re.fullmatch(r"([a-z-]+)\((.*)\)", s)
    if not m:
        raise ValueError(f"cannot parse group spec string {shown(s)}")
    name, body = m.group(1), m.group(2)
    if name == "product":
        factors = _split_top_level(body)
        if any(not f.strip() for f in factors):
            raise ValueError(f"group spec {shown(whole)} has an empty product factor")
        return GroupSpec.product(*(_parse_spec_string(f, whole) for f in factors))
    if name == "perm":
        gens = [p.strip() for p in _split_top_level(body)]
        return GroupSpec.permutation(gens)
    if name in _FAMILIES:
        try:
            params = [int(p) for p in _split_top_level(body)]
        except ValueError:
            raise ValueError(f"non-integer parameter in group spec {shown(s)}") from None
        return GroupSpec.named(name, *params)
    raise ValueError(f"unknown family name {shown(name)}")


# ---------------------------------------------------------------------------
# cycle notation


def parse_permutation(text: str, domain: Optional[int] = None) -> tuple[int, ...]:
    """Parse disjoint cycle notation into a 0-based image tuple.

    Points are positive integers; fixed points may be omitted.  When domain
    is given the permutation is padded to that many points.
    """
    cycles = _cycles(text)
    d = max((p for cyc in cycles for p in cyc), default=0)
    if domain is not None:
        if d > domain:
            raise ValueError(f"point {d} outside domain of size {domain}")
        d = domain
    return _images(cycles, d)


def _cycles(text: str) -> list[list[int]]:
    """The cycles of the cycle notation text, as lists of its 1-based points; a malformed or repeated point is refused."""
    stripped = text.replace(" ", "").replace(",", "")
    if stripped in ("", "()"):
        cycles: list[list[int]] = []
    else:
        if not re.fullmatch(r"(?:\s*\(\s*\d+(?:[\s,]+\d+)*\s*\))+\s*", text):
            raise ValueError(f"malformed cycle notation: {shown(text)}")
        cycles = [
            [int(p) for p in re.split(r"[\s,]+", body.strip())]
            for body in re.findall(r"\(([^()]*)\)", text)
        ]
    seen: set[int] = set()
    for cyc in cycles:
        for p in cyc:
            if p < 1:
                raise ValueError(f"malformed cycle notation: point {p} in {shown(text)}")
            if p in seen:
                raise ValueError(f"malformed cycle notation: repeated point {p} in {shown(text)}")
            seen.add(p)
    return cycles


def _images(cycles: list[list[int]], d: int) -> tuple[int, ...]:
    """The 0-based image tuple on d points of the permutation with the given cycles."""
    images = list(range(d))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            images[p - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(images)


def _perm_label(images: Sequence[int]) -> str:
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = images[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = images[nxt]
        out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out) if out else "()"


# ---------------------------------------------------------------------------
# groups


class Group:
    """A finite group whose elements are indices, multiplied as whole arrays.

    The identity is index 0.  product(a, b) is the index array of a * b for
    broadcastable index arrays a and b; inv and orders are per-element arrays
    and exponent is the lcm of all orders.  labels are built on first access.
    """

    __slots__ = ("n", "inv", "orders", "exponent", "identity", "description", "_law", "_labels", "_walk_table")

    def __init__(self, law, description: str):
        self._law = law
        self.n = law.n
        self.identity = 0
        self.description = description
        self._labels: Optional[tuple[str, ...]] = None
        self._walk_table: Optional[np.ndarray] = None
        if self.n * (self.n + 1) <= _WALK_TABLE:
            # every order divides n, so x^0 .. x^n holds each first return to the identity
            walks = self.powers(np.arange(self.n), self.n + 1)
            self.orders = np.argmax(walks[:, 1:] == 0, axis=1).astype(np.int64) + 1
            self.inv = walks[np.arange(self.n), self.orders - 1].astype(np.int32)
            self._walk_table = walks[:, : self.orders.max()].copy()
            self._walk_table.flags.writeable = False
        else:
            self.orders, self.inv = _orders_and_inverses(self)
        self.exponent = int(lcm(*set(self.orders.tolist())))

    def __repr__(self) -> str:
        return f"Group({self.description}, n={self.n})"

    def product(self, a, b) -> np.ndarray:
        """Indices of a * b, elementwise over the broadcast of the index arrays a and b.

        Work is done in blocks of _PRODUCT_BLOCK results, so the temporaries
        stay small however large the result is.
        """
        a = np.asarray(a, dtype=np.intp)
        b = np.asarray(b, dtype=np.intp)
        if a.size * b.size <= _PRODUCT_BLOCK or (a.shape == b.shape and a.size <= _PRODUCT_BLOCK):
            return self._law.product(a, b)
        shape = np.broadcast_shapes(a.shape, b.shape)
        a = np.broadcast_to(a, shape).reshape(-1)
        b = np.broadcast_to(b, shape).reshape(-1)
        out = np.empty(a.size, dtype=np.intp)
        for start in range(0, a.size, _PRODUCT_BLOCK):
            block = slice(start, start + _PRODUCT_BLOCK)
            out[block] = self._law.product(a[block], b[block])
        return out.reshape(shape)

    def powers(self, x, length: int) -> np.ndarray:
        """x^0, ..., x^(length-1) along a new last axis, for an index or index array x.

        The walk doubles: with x^0 .. x^w known, one product of x^w with
        x^1 .. x^w gives x^(w+1) .. x^(2w), so length powers take about
        log2(length) products.
        """
        x = np.asarray(x, dtype=np.intp)
        walk = np.empty(x.shape + (max(length, 2),), dtype=np.intp)
        walk[..., 0] = 0
        walk[..., 1] = x
        w = 1  # walk[..., : w + 1] holds x^0 .. x^w
        while w + 1 < length:
            need = min(w, length - 1 - w)
            walk[..., w + 1 : w + 1 + need] = self.product(walk[..., w : w + 1], walk[..., 1 : 1 + need])
            w += need
        return walk[..., :length]

    def walks(self, xs) -> Iterator[np.ndarray]:
        """The powers x^0 .. x^(|x|-1) of each x of the index sequence xs, in order.

        When the walks of all elements fit in _WALK_TABLE powers, they are
        taken at once on first use and kept.  Otherwise the walks of xs are
        taken together, in batches of at most _PRODUCT_BLOCK powers.
        """
        xs = np.asarray(xs, dtype=np.intp).reshape(-1)
        longest = int(self.orders.max())
        if self._walk_table is None and self.n * longest <= _WALK_TABLE:
            self._walk_table = self.powers(np.arange(self.n), longest)
            self._walk_table.flags.writeable = False
        orders = self.orders[xs].tolist()
        if self._walk_table is not None:
            for x, o in zip(xs.tolist(), orders):
                yield self._walk_table[x, :o]
            return
        step = max(1, _PRODUCT_BLOCK // longest)
        for start in range(0, xs.size, step):
            for walk, o in zip(self.powers(xs[start : start + step], longest), orders[start : start + step]):
                yield walk[:o]

    def conjugates(self, h) -> np.ndarray:
        """g^-1 h g for every g, along a new last axis, for an index or index array h."""
        h = np.asarray(h, dtype=np.intp)[..., None]
        return self.product(self.product(self.inv, h), np.arange(self.n))

    def label(self, x: int) -> str:
        """The printed name of element x."""
        return self._law.label(int(x))

    @property
    def labels(self) -> tuple[str, ...]:
        """Every element's label, in index order, built on first access."""
        if self._labels is None:
            self._labels = tuple(self._law.label(x) for x in range(self.n))
        return self._labels


def _orders_and_inverses(group: Group) -> tuple[np.ndarray, np.ndarray]:
    """Element orders (int64) and inverses (int32), from the powers of the elements still open.

    Every order is at most n <= b^2, b = ceil(sqrt(n)).  First the powers x^k,
    k <= b, are taken one product per step: the first k with x^k the identity
    is the order o of x and x^(k-1) its inverse, and x leaves the walk.  An
    element still open has o > b.  Its baby steps x^0 .. x^b come from one
    doubling walk (Group.powers), in blocks of at most _PRODUCT_BLOCK powers,
    and then it takes giant steps x^(tb).  The first t with x^(tb) among
    x^0 .. x^(b-1), as x^s, is t = ceil(o / b), with s = tb - o: for smaller
    t, b <= tb < o, and two exponents below b < o that agree mod o are
    equal.  So o = tb - s, and the inverse is x^(o-1) = x^((t-1)b) x^(b-1-s).
    Groups whose walks x^0 .. x^n fit in _WALK_TABLE read both from those
    walks instead.
    """
    n = group.n
    orders = np.zeros(n, dtype=np.int64)
    inv = np.zeros(n, dtype=np.int32)
    b = isqrt(n - 1) + 1
    todo = np.arange(n)  # elements of order k or more
    prev, cur = np.zeros(n, dtype=np.intp), todo  # x^(k-1) and x^k for x in todo
    for k in range(1, b + 1):
        done = cur == 0
        orders[todo[done]] = k
        inv[todo[done]] = prev[done]
        todo, prev = todo[~done], cur[~done]
        if k == b or not todo.size:
            break
        cur = group.product(prev, todo)
    step = max(1, _PRODUCT_BLOCK // (b + 1))
    for start in range(0, todo.size, step):
        xs = todo[start : start + step]
        walk = group.powers(xs, b + 1)
        baby, stride = walk[:, :b], walk[:, b]  # x^0 .. x^(b-1) and x^b
        prev, giant, t = np.zeros_like(stride), stride, 1  # x^((t-1)b) and x^(tb)
        while xs.size:
            hit = baby == giant[:, None]
            done = hit.any(axis=1)
            if done.any():
                closed = np.flatnonzero(done)
                s = hit[closed].argmax(axis=1)
                orders[xs[closed]] = t * b - s
                inv[xs[closed]] = group.product(prev[closed], baby[closed, b - 1 - s])
                xs, baby, stride, giant = xs[~done], baby[~done], stride[~done], giant[~done]
            prev, giant = giant, group.product(giant, stride)
            t += 1
    return orders, inv


class _Rows:
    """Elements as rows of small ints, composed row by row and found again by key.

    compose(x, y) gives the rows of x * y for broadcastable row arrays x and
    y, and label names one row (a list).  The first len(radix) coordinates
    determine a row, coordinate i lying in range(radix[i]).  When they have
    at most _DENSE_KEYS values, the key of a row is its mixed-radix value,
    looked up in a dense key -> index array.  Otherwise it is the bytes of
    those coordinates, looked up in the sorted keys.
    """

    def __init__(self, identity, gens, compose, radix, label, cap: int, dtype=np.int64):
        self._compose = compose
        self._label = label
        self._width = len(radix)
        space = 1
        for r in radix:  # d points have d^(d - 1) keys: stop once past _DENSE_KEYS
            space *= r
            if space > _DENSE_KEYS:
                break
        self._weights = self._void = None
        if space <= _DENSE_KEYS:
            self._weights = np.array([prod(radix[:i]) for i in range(self._width)], dtype=np.int64)
        else:
            self._void = np.dtype((np.void, self._width * np.dtype(dtype).itemsize))
        gen_rows = np.array(gens, dtype=dtype).reshape(len(gens), len(identity))
        self.rows = _closure(np.array([identity], dtype=dtype), gen_rows, self._times, self._keys, cap)
        self.n = len(self.rows)
        keys = self._keys(self.rows)
        if self._weights is not None:
            self._where = np.zeros(space, dtype=np.intp)
            self._where[keys] = np.arange(self.n)
        else:
            self._order = np.argsort(keys)
            self._sorted = keys[self._order]
        self.generators = self.index(gen_rows).tolist()

    def _times(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows of x[i] * y[j] for row arrays x and y, i-major."""
        return self._compose(x[:, None], y[None]).reshape(len(x) * len(y), x.shape[1])

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        rows = rows[..., : self._width]
        if self._weights is not None:
            return rows @ self._weights
        return np.ascontiguousarray(rows).view(self._void)[..., 0]

    def index(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the elements with the given rows, which must be elements."""
        if self._weights is not None:
            return self._where[self._keys(rows)]
        return self._order[np.searchsorted(self._sorted, self._keys(rows))]

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.index(self._compose(self.rows[a], self.rows[b]))

    def label(self, x: int) -> str:
        return self._label(self.rows[x].tolist())


class _Permutations(_Rows):
    """Permutations as image rows; x * y is the permutation i -> x[y[i]]."""

    def __init__(self, identity, gens, cap: int):
        d = len(identity)
        dtype = np.min_scalar_type(max(d - 1, 0))
        # the first d - 1 images of a permutation determine the last
        super().__init__(identity, gens, None, (d,) * (d - 1), _perm_label, cap, dtype)
        self._d = d
        self._flat = self.rows.reshape(-1)

    def _times(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x[:, y].reshape(len(x) * len(y), x.shape[1])

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # image i of a * b is entry b[i] of row a, read from the flattened rows
        return self.index(self._flat[a[..., None] * self._d + self.rows[b]])


class _DirectProduct:
    """Pairs (a, b) of two factors, indexed a * |B| + b and multiplied factor by factor."""

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.n = left.n * right.n
        self.generators = [g * right.n for g in left.generators] + right.generators

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        nb = self.right.n
        return self.left.product(a // nb, b // nb) * nb + self.right.product(a % nb, b % nb)

    def label(self, x: int) -> str:
        nb = self.right.n
        return f"({self.left.label(x // nb)},{self.right.label(x % nb)})"


def _closure(identity: np.ndarray, gens: np.ndarray, times: Callable, keys: Callable, cap: int) -> np.ndarray:
    """Rows of every element generated, in breadth-first order from the identity.

    The closure runs level by level.  A level is the frontier times every
    generator, frontier-major, and keeps the first occurrence of each element
    not seen before.  That is the order of a one-element queue that takes
    elements in discovery order and generators in input order.
    """
    levels = [identity]
    seen = set(keys(identity).tolist())
    frontier = identity
    while len(frontier):
        candidates = times(frontier, gens)
        fresh = []
        for i, key in enumerate(keys(candidates).tolist()):
            if key not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"group size cap {cap} exceeded while closing generators")
                seen.add(key)
                fresh.append(i)
        frontier = candidates[fresh]
        levels.append(frontier)
    return np.concatenate(levels)


def _family_law(family: str, params: tuple[int, ...], cap: int):
    """The element rows and product of a named family; a family of order over cap is refused before any element is built."""
    if family == "cyclic":
        (n,) = _expect_params(family, params, 1)
        if n < 1:
            raise ValueError(f"cyclic order must be positive, got {shown(n)}")
        _refuse_over_cap(family, params, n, cap)
        return _Rows((0,), [(1 % n,)], lambda x, y: (x + y) % n, (n,), lambda r: str(r[0]), cap)
    if family == "dihedral":
        (n,) = _expect_params(family, params, 1)
        if n < 1:
            raise ValueError(f"dihedral parameter must be positive, got {shown(n)}")
        _refuse_over_cap(family, params, 2 * n, cap)

        def dmul(x, y):
            # r^i s^j * r^k s^l = r^(i + k or i - k) s^(j ^ l)
            i = (x[..., 0] + (1 - 2 * x[..., 1]) * y[..., 0]) % n
            return np.stack([i, x[..., 1] ^ y[..., 1]], axis=-1)

        def dlabel(r):
            return f"r{r[0]}" + (" s" if r[1] else "")

        return _Rows((0, 0), [(1 % n, 0), (0, 1)], dmul, (n, 2), dlabel, cap)
    if family in ("quaternion", "generalized-quaternion"):
        (order,) = _expect_params(family, params, 1)
        if family == "quaternion" and order != 8:
            raise ValueError("quaternion takes order 8; use generalized-quaternion otherwise")
        if order % 4 != 0 or order < 8:
            raise ValueError(f"generalized quaternion order must be a multiple of 4, >= 8; got {shown(order)}")
        _refuse_over_cap(family, params, order, cap)
        half = order // 2  # a has order `half`, b*b = a^(half/2)
        quarter = order // 4

        def qmul(x, y):
            i = x[..., 0] + (1 - 2 * x[..., 1]) * y[..., 0] + quarter * (x[..., 1] & y[..., 1])
            return np.stack([i % half, x[..., 1] ^ y[..., 1]], axis=-1)

        def qlabel(r):
            return f"a{r[0]}" + (" b" if r[1] else "")

        return _Rows((0, 0), [(1, 0), (0, 1)], qmul, (half, 2), qlabel, cap)
    if family in ("symmetric", "alternating"):
        (n,) = _expect_params(family, params, 1)
        if not 1 <= n <= 7:
            raise ValueError(f"{family} degree must be between 1 and 7, got {shown(n)}")
        _refuse_over_cap(family, params, factorial(n) // (2 if family == "alternating" and n > 1 else 1), cap)
        gens: list[tuple[int, ...]] = []
        if family == "symmetric":
            if n >= 2:
                gens.append(parse_permutation("(1 2)", n))
            if n >= 3:
                gens.append(parse_permutation("(" + " ".join(str(i) for i in range(1, n + 1)) + ")", n))
        else:
            if n >= 3:
                gens.append(parse_permutation("(1 2 3)", n))
            if n >= 4:
                pts = range(1, n + 1) if n % 2 == 1 else range(2, n + 1)
                gens.append(parse_permutation("(" + " ".join(str(i) for i in pts) + ")", n))
        return _Permutations(tuple(range(n)), gens, cap)
    if family == "elementary-abelian":
        p, k = _expect_params(family, params, 2)
        if k < 1 or p < 2:
            raise ValueError(f"elementary-abelian needs a prime p and k >= 1, got ({shown(p)},{shown(k)})")
        # p^k > cap exactly when p^min(k, b) > cap, b = cap.bit_length() + 1, since 2^b > cap
        _refuse_over_cap(family, params, p ** min(k, cap.bit_length() + 1), cap)
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise ValueError(f"elementary-abelian needs a prime p and k >= 1, got ({p},{k})")
        gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
        return _Rows(
            (0,) * k,
            gens,
            lambda x, y: (x + y) % p,
            (p,) * k,
            lambda r: "(" + ",".join(str(c) for c in r) + ")",
            cap,
        )
    raise ValueError(f"unknown family name {shown(family)}")


def _refuse_over_cap(family: str, params: tuple[int, ...], order: int, cap: int) -> None:
    if order > cap:
        named = f"{family}({','.join(shown(p) for p in params)})"
        raise ValueError(f"group size cap {cap} exceeded by {named}")


def _expect_params(family: str, params: tuple[int, ...], count: int) -> tuple[int, ...]:
    if len(params) != count:
        raise ValueError(f"{family} takes {count} parameter(s), got {len(params)}")
    return params


def build_group(spec: GroupSpec, cap: int = DEFAULT_GROUP_CAP) -> Group:
    """Realize a GroupSpec as a Group, enforcing the size cap."""
    return Group(_law(spec, cap), spec.describe())


def _law(spec: GroupSpec, cap: int):
    """The element rows and product of spec, with no Group built for a factor.

    A direct product is folded factor by factor, nested products in place,
    and every step is held to the cap.  A permutation spec whose largest
    point would give a group at the cap more than TABLE_BYTE_BUDGET of
    element rows is refused before any per-point list is built.
    """
    if spec.kind == "permutation-generators":
        cycles = [_cycles(g) for g in spec.generators]
        domain = max((p for gen in cycles for cyc in gen for p in cyc), default=0)
        if cap * domain * np.min_scalar_type(max(domain - 1, 0)).itemsize > TABLE_BYTE_BUDGET:
            raise ValueError(
                f"point {shown(domain)} is too large: element rows of a group at the size cap {cap}"
                f" would exceed the {TABLE_BYTE_BUDGET >> 20} MiB budget"
            )
        return _Permutations(tuple(range(domain)), [_images(gen, domain) for gen in cycles], cap)
    if spec.kind == "named-family":
        return _family_law(spec.family, spec.params, cap)
    if spec.kind == "direct-product":
        law = _law(spec.factors[0], cap)
        for factor in spec.factors[1:]:
            right = _law(factor, cap)
            n = law.n * right.n
            if n > cap:
                raise ValueError(f"group size cap {cap} exceeded by direct product of order {n}")
            law = _DirectProduct(law, right)
        return law
    raise ValueError(f"unknown group spec kind {shown(spec.kind)}")


def element_order(g: int, group: Group) -> int:
    """Least k >= 1 with g^k the identity."""
    return int(group.orders[g])


def exponent(group: Group) -> int:
    """lcm of all element orders."""
    return group.exponent


def power_of(g: int, t: int, group: Group) -> int:
    """g^t, read from the power walk of g; t may be any integer."""
    (walk,) = group.walks([g])
    return int(walk[t % len(walk)])


# ---------------------------------------------------------------------------
# conjugacy data


@dataclass(eq=False)
class ClassData:
    """Conjugacy classes of a group, class 0 being the identity class."""

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
    group: Group = field(repr=False)

    @property
    def k(self) -> int:
        return len(self.classes)

    @cached_property
    def power_class(self) -> np.ndarray:
        """Shape (k, exponent), int32; [j, t] = class of rep_j ** t.  Built on first access."""
        t = np.arange(self.group.exponent)
        return np.stack([self.class_of[walk[t % len(walk)]] for walk in self.group.walks(self.representatives)])


def conjugacy_classes(group: Group) -> ClassData:
    """Partition the group into conjugacy orbits under h -> g^-1 h g.

    Conjugation by the generators, which generate the group, has the same
    orbits.  Each element's least orbit-mate is found by taking minima over
    the generators' conjugation maps and jumping to the least element's own
    least, until nothing changes; the fixed point is constant on every
    orbit, and the least member of an orbit is its own least.  Classes are
    numbered by their least members, which are the representatives.
    """
    n = group.n
    idx = np.arange(n)
    gens = np.array(group._law.generators, dtype=np.intp)[:, None]
    maps = group.product(group.product(group.inv[gens], idx), gens)  # [i, x] = s_i^-1 x s_i
    least = idx
    while True:
        nxt = least
        for conj in maps:
            nxt = np.minimum(nxt, least[conj])
        nxt = nxt[nxt]
        if np.array_equal(nxt, least):
            break
        least = nxt
    is_rep = least == idx
    class_of = (np.cumsum(is_rep) - 1)[least].astype(np.int32)
    by_class = np.argsort(class_of, kind="stable")  # members ascending within each class
    classes = np.split(by_class, np.cumsum(np.bincount(class_of))[:-1])
    reps = np.flatnonzero(is_rep)
    return ClassData(
        classes=tuple(tuple(c.tolist()) for c in classes),
        class_of=class_of,
        representatives=tuple(reps.tolist()),
        sizes=tuple(len(c) for c in classes),
        inverse_class=tuple(class_of[group.inv[reps]].tolist()),
        group=group,
    )
