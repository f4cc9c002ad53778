"""Finite groups as explicit multiplication tables, plus conjugacy data.

Groups are built from permutation generators in cycle notation, from a small
catalogue of named families, or as direct products.  Elements are integer
indices with the identity at 0; for generated groups the indexing is the
breadth-first discovery order from the identity, applying generators in input
order, so every downstream output is reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_GROUP_CAP = 5040
# bytes the (k, k, k) int64 class structure-constant tensor may take
TABLE_BYTE_BUDGET = 256 << 20

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
        """Parse a spec from decoded JSON (dict or shorthand string)."""
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
                return GroupSpec.product(*(GroupSpec.from_json(f) for f in factors))
            raise ValueError("group spec dict needs 'generators', 'family' or 'product'")
        raise ValueError(f"cannot parse group spec from {type(obj).__name__}")

    def describe(self) -> str:
        if self.kind == "permutation-generators":
            return "perm[" + ",".join(self.generators) + "]"
        if self.kind == "named-family":
            return f"{self.family}({','.join(str(p) for p in self.params)})"
        return "product(" + ",".join(f.describe() for f in self.factors) + ")"


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in group spec {s!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError(f"unbalanced parentheses in group spec {s!r}")
    parts.append("".join(cur))
    return parts


def _parse_spec_string(s: str) -> GroupSpec:
    s = s.strip()
    bracket = re.fullmatch(r"perm\[(.*)\]", s)
    if bracket:
        return GroupSpec.permutation([p.strip() for p in _split_top_level(bracket.group(1))])
    m = re.fullmatch(r"([a-z-]+)\((.*)\)", s)
    if not m:
        raise ValueError(f"cannot parse group spec string {s!r}")
    name, body = m.group(1), m.group(2)
    if name == "product":
        return GroupSpec.product(*(_parse_spec_string(p) for p in _split_top_level(body)))
    if name == "perm":
        gens = [p.strip() for p in _split_top_level(body)]
        return GroupSpec.permutation(gens)
    if name in _FAMILIES:
        try:
            params = [int(p) for p in _split_top_level(body)]
        except ValueError:
            raise ValueError(f"non-integer parameter in group spec {s!r}") from None
        return GroupSpec.named(name, *params)
    raise ValueError(f"unknown family name {name!r}")


# ---------------------------------------------------------------------------
# cycle notation


def parse_permutation(text: str, domain: Optional[int] = None) -> tuple[int, ...]:
    """Parse disjoint cycle notation into a 0-based image tuple.

    Points are positive integers; fixed points may be omitted.  When domain
    is given the permutation is padded to that many points.
    """
    stripped = text.replace(" ", "").replace(",", "")
    if stripped in ("", "()"):
        cycles: list[list[int]] = []
    else:
        if not re.fullmatch(r"(?:\s*\(\s*\d+(?:[\s,]+\d+)*\s*\))+\s*", text):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = [
            [int(p) for p in re.split(r"[\s,]+", body.strip())]
            for body in re.findall(r"\(([^()]*)\)", text)
        ]
    seen: set[int] = set()
    for cyc in cycles:
        for p in cyc:
            if p < 1:
                raise ValueError(f"malformed cycle notation: point {p} in {text!r}")
            if p in seen:
                raise ValueError(f"malformed cycle notation: repeated point {p} in {text!r}")
            seen.add(p)
    d = max(seen) if seen else 0
    if domain is not None:
        if d > domain:
            raise ValueError(f"point {d} outside domain of size {domain}")
        d = domain
    images = list(range(d))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            images[p - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(images)


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation i -> a[b[i]] of two image tuples on the same points."""
    return tuple(map(a.__getitem__, b))


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
    """A finite group given by its full multiplication table.

    mul[a, b] is the index of the product, the identity is index 0, inv and
    orders are per-element arrays and exponent is the lcm of all orders.
    """

    __slots__ = ("n", "mul", "inv", "orders", "exponent", "identity", "description", "labels")

    def __init__(self, mul: np.ndarray, description: str, labels: tuple[str, ...]):
        self.n = int(mul.shape[0])
        self.mul = mul
        self.identity = 0
        self.description = description
        self.labels = labels
        self.orders, self.inv = _orders_and_inverses(mul)
        self.exponent = int(lcm(*(int(o) for o in self.orders)))

    def __repr__(self) -> str:
        return f"Group({self.description}, n={self.n})"


def _orders_and_inverses(mul: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element orders (int64) and inverses (int32), from the powers x^k for k = 1, 2, ...

    The first k with x^k the identity is the order o of x, and x^(o-1) is its
    inverse, so no n x n temporary is needed.
    """
    n = mul.shape[0]
    gens = np.arange(n)
    prev = np.zeros(n, dtype=mul.dtype)  # x^(k-1)
    cur = gens.astype(mul.dtype)  # x^k
    orders = np.zeros(n, dtype=np.int64)
    inv = np.zeros(n, dtype=np.int32)
    k = 1
    while (orders == 0).any():
        if k > n:
            raise ValueError("multiplication table is not a group table")
        fresh = (cur == 0) & (orders == 0)
        orders[fresh] = k
        inv[fresh] = prev[fresh]
        prev, cur = cur, mul[cur, gens]
        k += 1
    return orders, inv


def _bfs_table(
    identity,
    gens: Sequence,
    mul_fn: Callable,
    label_fn: Callable,
    description: str,
    cap: int,
) -> Group:
    elems = [identity]
    index = {identity: 0}
    parents: list[tuple[int, int]] = [(-1, -1)]
    qi = 0
    while qi < len(elems):
        x = elems[qi]
        for gi, g in enumerate(gens):
            y = mul_fn(x, g)
            if y not in index:
                if len(elems) >= cap:
                    raise ValueError(f"group size cap {cap} exceeded while closing generators")
                index[y] = len(elems)
                elems.append(y)
                parents.append((qi, gi))
        qi += 1
    n = len(elems)
    # lgen[gi][c] is the index of g * elems[c]; with elems[a] = elems[pa] * g,
    # a * c = pa * (g * c), so row a is row pa read at lgen[gi]
    lgen = [
        np.array([index[mul_fn(g, x)] for x in elems], dtype=np.int32) for g in gens
    ]
    mul = np.empty((n, n), dtype=np.int32)
    mul[0] = np.arange(n, dtype=np.int32)
    for a in range(1, n):
        pa, gi = parents[a]
        np.take(mul[pa], lgen[gi], out=mul[a])
    return Group(mul, description, tuple(label_fn(x) for x in elems))


def _family_pieces(family: str, params: tuple[int, ...]):
    """identity, generators, multiplication and label callables for a family."""
    if family == "cyclic":
        (n,) = _expect_params(family, params, 1)
        if n < 1:
            raise ValueError(f"cyclic order must be positive, got {n}")
        return 0, [1 % n], lambda a, b: (a + b) % n, str
    if family == "dihedral":
        (n,) = _expect_params(family, params, 1)
        if n < 1:
            raise ValueError(f"dihedral parameter must be positive, got {n}")

        def dmul(x, y):
            i, j = x
            k, l = y
            return ((i + k) % n if j == 0 else (i - k) % n, j ^ l)

        def dlabel(x):
            i, j = x
            return f"r{i}" + (" s" if j else "")

        return (0, 0), [(1 % n, 0), (0, 1)], dmul, dlabel
    if family in ("quaternion", "generalized-quaternion"):
        (order,) = _expect_params(family, params, 1)
        if family == "quaternion" and order != 8:
            raise ValueError("quaternion takes order 8; use generalized-quaternion otherwise")
        if order % 4 != 0 or order < 8:
            raise ValueError(f"generalized quaternion order must be a multiple of 4, >= 8; got {order}")
        half = order // 2  # a has order `half`, b*b = a^(half/2)
        quarter = order // 4

        def qmul(x, y):
            i, j = x
            k, l = y
            i2 = i + k if j == 0 else i - k
            if j and l:
                i2 += quarter
            return (i2 % half, j ^ l)

        def qlabel(x):
            i, j = x
            return f"a{i}" + (" b" if j else "")

        return (0, 0), [(1, 0), (0, 1)], qmul, qlabel
    if family in ("symmetric", "alternating"):
        (n,) = _expect_params(family, params, 1)
        if not 1 <= n <= 7:
            raise ValueError(f"{family} degree must be between 1 and 7, got {n}")
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
        identity = tuple(range(n))
        return identity, gens, _compose, _perm_label
    if family == "elementary-abelian":
        p, k = _expect_params(family, params, 2)
        if k < 1 or p < 2 or any(p % q == 0 for q in range(2, p)):
            raise ValueError(f"elementary-abelian needs a prime p and k >= 1, got ({p},{k})")
        identity = (0,) * k
        gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
        return (
            identity,
            gens,
            lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
            lambda x: "(" + ",".join(str(c) for c in x) + ")",
        )
    raise ValueError(f"unknown family name {family!r}")


def _expect_params(family: str, params: tuple[int, ...], count: int) -> tuple[int, ...]:
    if len(params) != count:
        raise ValueError(f"{family} takes {count} parameter(s), got {len(params)}")
    return params


def build_group(spec: GroupSpec, cap: int = DEFAULT_GROUP_CAP) -> Group:
    """Realize a GroupSpec as an explicit table, enforcing the size cap."""
    if spec.kind == "permutation-generators":
        domain = 0
        for g in spec.generators:
            images = parse_permutation(g)
            domain = max(domain, len(images))
        gens = [parse_permutation(g, domain) for g in spec.generators]
        identity = tuple(range(domain))
        return _bfs_table(identity, gens, _compose, _perm_label, spec.describe(), cap)
    if spec.kind == "named-family":
        identity, gens, mul_fn, label_fn = _family_pieces(spec.family, spec.params)
        return _bfs_table(identity, gens, mul_fn, label_fn, spec.describe(), cap)
    if spec.kind == "direct-product":
        mul, labels = _table(spec, cap)
        return Group(mul, spec.describe(), labels)
    raise ValueError(f"unknown group spec kind {spec.kind!r}")


def _table(spec: GroupSpec, cap: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The multiplication table and labels of spec, with no Group built for a product.

    A direct product is folded factor by factor, nested products in place,
    and every step is held to the cap.
    """
    if spec.kind != "direct-product":
        group = build_group(spec, cap)
        return group.mul, group.labels
    mul, labels = _table(spec.factors[0], cap)
    for factor in spec.factors[1:]:
        b_mul, b_labels = _table(factor, cap)
        n = len(labels) * len(b_labels)
        if n > cap:
            raise ValueError(f"group size cap {cap} exceeded by direct product of order {n}")
        mul = (mul[:, None, :, None].astype(np.int32) * len(b_labels) + b_mul[None, :, None, :]).reshape(n, n)
        labels = tuple(f"({la},{lb})" for la in labels for lb in b_labels)
    return mul, labels


def element_order(g: int, group: Group) -> int:
    """Least k >= 1 with g^k the identity."""
    return int(group.orders[g])


def exponent(group: Group) -> int:
    """lcm of all element orders."""
    return group.exponent


def power_of(g: int, t: int, group: Group) -> int:
    """g^t by repeated squaring on the table; t may be any integer."""
    o = int(group.orders[g])
    e = t % o
    result = 0
    base = g
    while e:
        if e & 1:
            result = int(group.mul[result, base])
        base = int(group.mul[base, base])
        e >>= 1
    return result


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
    power_class: np.ndarray  # shape (k, exponent); [j, t] = class of rep_j ** t

    @property
    def k(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: Group) -> ClassData:
    """Partition the group into conjugacy orbits under h -> g^-1 h g."""
    n = group.n
    mul, inv = group.mul, group.inv
    all_g = np.arange(n)
    class_of = np.full(n, -1, dtype=np.int32)
    classes: list[tuple[int, ...]] = []
    for h in range(n):
        if class_of[h] >= 0:
            continue
        is_member = np.zeros(n, dtype=bool)
        is_member[mul[mul[inv, h], all_g]] = True
        members = np.flatnonzero(is_member)  # sorted, like np.unique, which would import numpy.ma
        class_of[members] = len(classes)
        classes.append(tuple(int(x) for x in members))
    reps = tuple(c[0] for c in classes)
    sizes = tuple(len(c) for c in classes)
    inverse_class = tuple(int(class_of[group.inv[r]]) for r in reps)
    m = group.exponent
    k = len(classes)
    power_class = np.empty((k, m), dtype=np.int32)
    rep_arr = np.array(reps)
    cur = np.zeros(k, dtype=rep_arr.dtype)  # rep_j ** t for every j at once
    for t in range(m):
        power_class[:, t] = class_of[cur]
        cur = mul[cur, rep_arr]
    return ClassData(
        classes=tuple(classes),
        class_of=class_of,
        representatives=reps,
        sizes=sizes,
        inverse_class=inverse_class,
        power_class=power_class,
    )
