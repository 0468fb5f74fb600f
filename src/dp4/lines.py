"""The 16 lines of a quartic Del Pezzo surface as lattice combinatorics.

Classes live in the rank-6 lattice with form diag(+1,-1,...,-1), written
(a; b1..b5): the five exceptional classes, the ten proper transforms of lines
through two points, and the conic through all five.  Incidence is the lattice
pairing; the incidence graph is 5-regular and triangle-free on 16 vertices.
Five distinguished partitions split the lines into two 8-sets of four
incident pairs.  The full incidence symmetry group has order 1920: its
elements are permutations of the 16 lines, found by exhaustive search, and
each carries its signed action on the five partition indices (an even number
of side swaps).  Subgroup closures compose the line permutations; the
signed actions are data, checked once when the group is built.  Everything
is checked against frozen reference data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from . import linalg

CANONICAL = (-3, -1, -1, -1, -1, -1)


def pairing(v, w) -> int:
    return v[0] * w[0] - sum(v[i] * w[i] for i in range(1, 6))


@dataclass(frozen=True)
class LineConfiguration:
    classes: tuple[tuple[int, ...], ...]
    incidence: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1)
def lines16() -> LineConfiguration:
    """The 16 line classes in fixed order: E_1..E_5, the ten (1; delta_i +
    delta_j) with i<j, then the conic (2; 1,1,1,1,1)."""
    classes = []
    for i in range(5):
        v = [0, 0, 0, 0, 0, 0]
        v[1 + i] = -1
        classes.append(tuple(v))
    for i in range(5):
        for j in range(i + 1, 5):
            v = [1, 0, 0, 0, 0, 0]
            v[1 + i] = 1
            v[1 + j] = 1
            classes.append(tuple(v))
    classes.append((2, 1, 1, 1, 1, 1))
    for c in classes:
        assert pairing(c, c) == -1
        assert pairing(c, CANONICAL) == -1  # degree against -K is +1
    incidence = tuple(
        tuple(
            (1 if i != j and pairing(classes[i], classes[j]) == 1 else 0)
            for j in range(16)
        )
        for i in range(16)
    )
    return LineConfiguration(tuple(classes), incidence)


def _induces_perfect_matching(vertices, incidence) -> bool:
    """Whether the induced subgraph is exactly 4 disjoint edges: every vertex
    meets exactly one other vertex of the set."""
    vset = set(vertices)
    return all(
        sum(1 for w in vset if w != v and incidence[v][w] == 1) == 1
        for v in vset
    )


@lru_cache(maxsize=1)
def partitions5() -> tuple[tuple[frozenset, frozenset], ...]:
    """The five splits of the 16 lines into two 8-sets, each inducing
    exactly 4 disjoint incident pairs; found by exhaustive search over the
    6435 splits.  Each partition is returned with the conic's side first."""
    cfg = lines16()
    from itertools import combinations

    found = []
    for rest in combinations(range(1, 16), 7):
        side = (0,) + rest
        if not _induces_perfect_matching(side, cfg.incidence):
            continue
        other = tuple(v for v in range(16) if v not in side)
        if _induces_perfect_matching(other, cfg.incidence):
            found.append((frozenset(side), frozenset(other)))
    if len(found) != 5:
        raise RuntimeError(f"expected 5 partitions, found {len(found)}")
    ordered = []
    for a, b in found:
        ordered.append((a, b) if 15 in a else (b, a))
    # index partitions by the unique exceptional class on the conic's side
    ordered.sort(key=lambda p: min(v for v in p[0] if v < 5))
    return tuple(ordered)


class SignedPermutation(NamedTuple):
    """The action of a symmetry on the five partitions: index i goes to
    perm[i], and signs[i] is -1 when the conic's side of partition i lands on
    the far side of partition perm[i].  A record only; weyl_group() checks
    every action once."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]


@dataclass(frozen=True)
class WeylElement:
    line_perm: tuple[int, ...]
    signed: SignedPermutation


@dataclass(frozen=True)
class WeylGroup:
    elements: tuple[WeylElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def kernel(self) -> tuple[WeylElement, ...]:
        """Elements fixing every partition index (sides may still swap)."""
        return tuple(
            e for e in self.elements if e.signed.perm == (0, 1, 2, 3, 4)
        )

    def index_copy(self) -> tuple[WeylElement, ...]:
        """The subgroup acting with no side swaps: index relabelings only."""
        return tuple(
            e for e in self.elements if e.signed.signs == (1, 1, 1, 1, 1)
        )


def _compose(a, b) -> tuple[int, ...]:
    """The line permutation a after b."""
    return tuple(a[i] for i in b)


def _graph_automorphisms(incidence):
    """All adjacency-preserving permutations, by backtracking."""
    n = len(incidence)
    results = []
    image = [-1] * n
    used = [False] * n

    def extend(d):
        if d == n:
            results.append(tuple(image))
            return
        for c in range(n):
            if not used[c] and all(
                incidence[d][e] == incidence[c][image[e]] for e in range(d)
            ):
                image[d] = c
                used[c] = True
                extend(d + 1)
                used[c] = False
        image[d] = -1

    extend(0)
    return results


@lru_cache(maxsize=1)
def _side_index() -> dict:
    """Each of the ten partition sides -> (partition index, +1 for the
    conic's side, -1 for the other)."""
    return {
        side: (j, sign)
        for j, sides in enumerate(partitions5())
        for side, sign in zip(sides, (1, -1))
    }


def _partition_action(line_perm) -> SignedPermutation:
    sides = _side_index()
    try:
        images = [
            sides[frozenset(line_perm[v] for v in side_a)]
            for side_a, _ in partitions5()
        ]
    except KeyError:
        raise RuntimeError("line permutation does not preserve partitions")
    return SignedPermutation(*zip(*images))


@lru_cache(maxsize=1)
def weyl_group() -> WeylGroup:
    """The full incidence symmetry group: every line permutation with its
    signed action on the five partitions; order 1920 = 2^4 * 5!, kernel of
    the index action of order 16 acting simply transitively on the lines.
    Built and checked once per process: the cache has a single key, so every
    caller shares one group."""
    elements = tuple(
        WeylElement(line_perm, _partition_action(line_perm))
        for line_perm in _graph_automorphisms(lines16().incidence)
    )
    group = WeylGroup(elements)
    if group.order != 1920:
        raise RuntimeError(f"symmetry group order {group.order}, expected 1920")
    for e in elements:
        if sorted(e.signed.perm) != [0, 1, 2, 3, 4]:
            raise RuntimeError("partition action is not a permutation of 0..4")
        if e.signed.signs.count(-1) % 2:
            raise RuntimeError("odd number of side swaps")
    if len({e.signed for e in elements}) != 1920:
        raise RuntimeError("signed-permutation action is not faithful")
    if len(group.kernel()) != 16:
        raise RuntimeError("kernel of the index action must have order 16")
    return group


def no_intermediate_subgroup() -> bool:
    """No proper subgroup strictly between the index-relabeling copy of S5
    and the full group: adjoining any outside element generates everything.

    Verified by closure computation on line permutations, one representative
    per S5-conjugacy class of outside elements, with S5 generated by the
    elements acting as (1 0 2 3 4) and (1 2 3 4 0); any subgroup containing
    S5 has order 120*k with k dividing 16, so exceeding order 960 forces the
    full group.
    """
    group = weyl_group()
    s5 = group.index_copy()
    if len(s5) != 120:
        raise RuntimeError("index-relabeling subgroup must have order 120")
    gens_s5 = [
        e.line_perm
        for e in s5
        if e.signed.perm in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))
    ]
    if len(gens_s5) != 2:
        raise RuntimeError("index copy lacks the S5 generators")
    conjugators = [
        (e.line_perm, tuple(sorted(range(16), key=e.line_perm.__getitem__)))
        for e in s5
    ]
    seen = {s for s, _ in conjugators}
    for e in group.elements:
        g = e.line_perm
        if g in seen:
            continue
        for s, s_inv in conjugators:
            seen.add(_compose(_compose(s, g), s_inv))
        if not _closure_is_full(gens_s5 + [g]):
            return False
    return True


def _closure_is_full(generators) -> bool:
    identity = tuple(range(16))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in generators:
                p = _compose(g, h)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        if len(seen) > 960:
            return True
        frontier = nxt
    return len(seen) == 1920


# ---------------------------------------------------------------------------
# frozen reference data


def golden_path() -> Path:
    override = os.environ.get("DP4_GOLDEN_DIR")
    if override:
        return Path(override) / "lines_golden.json"
    return Path(__file__).parent / "data" / "lines_golden.json"


def spectrum_charpoly() -> list[int]:
    """Coefficients of the characteristic polynomial of the incidence
    matrix, low degree first."""
    return [int(c) for c in linalg.charpoly(lines16().incidence)]


def triangle_free() -> bool:
    cfg = lines16()
    inc = cfg.incidence
    for i in range(16):
        for j in range(i + 1, 16):
            if not inc[i][j]:
                continue
            for k in range(j + 1, 16):
                if inc[i][k] and inc[j][k]:
                    return False
    return True


def report() -> dict:
    """All line-configuration facts in serializable form."""
    cfg = lines16()
    partitions = partitions5()
    group = weyl_group()
    kernel = group.kernel()
    orbit = {e.line_perm[0] for e in kernel}
    stabilizer_trivial = all(
        all(e.line_perm[v] != v for v in range(16))
        for e in kernel
        if e.line_perm != tuple(range(16))
    )
    return {
        "classes": [list(c) for c in cfg.classes],
        "incidence": [list(r) for r in cfg.incidence],
        "line_degrees": [sum(r) for r in cfg.incidence],
        "canonical_class": list(CANONICAL),
        "sum_of_lines": [int(sum(c[i] for c in cfg.classes)) for i in range(6)],
        "partitions": [[sorted(a), sorted(b)] for a, b in partitions],
        "group_order": group.order,
        "kernel_order": len(kernel),
        "kernel_orbit_size": len(orbit),
        "kernel_stabilizers_trivial": stabilizer_trivial,
        "index_copy_order": len(group.index_copy()),
        "no_intermediate_subgroup": no_intermediate_subgroup(),
        "charpoly": spectrum_charpoly(),
        "triangle_free": triangle_free(),
    }


def load_golden() -> dict:
    with open(golden_path()) as fh:
        return json.load(fh)
