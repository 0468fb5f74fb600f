"""Two-torsion combinatorics of hyperelliptic curves and the component
classifier for families of quadric surface pencils.

A hyperelliptic curve of genus g has 2g+2 branch points, and every
two-torsion class of its Jacobian is a sum of branch points taken over an
even subset S, with S and its complement giving the same class.  The
canonical representative keeps |S| <= g+1, breaking the tie at |S| = g+1
by keeping the subset containing index 1.  The permutation action on
branch indices has orbits labelled by n = |S|/2.

classify_component turns the height of a family together with its
two-torsion datum into a component label: below height 8 the relevant
stratum is empty or carries no extra torsion choice, at height 8 the
orbit label n picks the component, at height 10 the parity of the theta
quadratic form does, and from height 12 on only the presence of a
nonzero class matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

COMPONENT_LABELS = (
    "empty",
    "S5-only",
    "W-component-A",
    "W-component-B",
    "W-single",
)


@dataclass(frozen=True)
class TwoTorsionClass:
    """Even subset of branch indices modulo complement, stored canonically.

    branch_count is 2g+2; indices are 1-based.  The canonical
    representative has |S| <= g+1 and, when |S| = g+1 exactly, contains
    index 1.
    """

    branch_count: int
    subset: frozenset

    def __post_init__(self):
        n = int(self.branch_count)
        if n < 4 or n % 2 != 0:
            raise ValueError("branch count must be even and at least 4")
        s = frozenset(int(i) for i in self.subset)
        if any(i < 1 or i > n for i in s):
            raise ValueError("branch indices out of range")
        if len(s) % 2 != 0:
            raise ValueError("subset must have even size")
        half = n // 2
        if len(s) > half:
            s = frozenset(range(1, n + 1)) - s
        elif len(s) == half and 1 not in s:
            s = frozenset(range(1, n + 1)) - s
        object.__setattr__(self, "branch_count", n)
        object.__setattr__(self, "subset", s)

    @property
    def genus(self) -> int:
        return self.branch_count // 2 - 1

    def is_zero(self) -> bool:
        return not self.subset

    def add(self, other: "TwoTorsionClass") -> "TwoTorsionClass":
        if other.branch_count != self.branch_count:
            raise ValueError("branch counts differ")
        return TwoTorsionClass(self.branch_count, self.subset ^ other.subset)

    def relabel(self, perm) -> "TwoTorsionClass":
        """Apply a permutation of {1..2g+2}, given as a dict or callable."""
        move = perm.__getitem__ if hasattr(perm, "__getitem__") else perm
        return TwoTorsionClass(self.branch_count, {move(i) for i in self.subset})


def torsion_orbit_label(cls: TwoTorsionClass) -> int:
    """Orbit label n = |S|/2 of the canonical representative."""
    return len(cls.subset) // 2


def enumerate_classes(g: int) -> list[TwoTorsionClass]:
    """All 2^(2g) classes for genus g, via even subsets modulo complement."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    n = 2 * g + 2
    seen = set()
    out = []
    for mask in range(1 << n):
        bits = [i + 1 for i in range(n) if mask >> i & 1]
        if len(bits) % 2 != 0:
            continue
        cls = TwoTorsionClass(n, frozenset(bits))
        if cls.subset not in seen:
            seen.add(cls.subset)
            out.append(cls)
    return out


def orbit_sizes(g: int) -> tuple[int, ...]:
    """Sizes of the branch-relabeling orbits on two-torsion classes,
    indexed by n = 0, 1, ...; the total is 2^(2g)."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    n = 2 * g + 2
    sizes = [1]
    for k in range(1, g // 2 + 1):
        sizes.append(comb(n, 2 * k))
    if g % 2 == 1:
        sizes.append(comb(n, g + 1) // 2)
    return tuple(sizes)


def classify_component(h: int, datum) -> str:
    """Component label from the height and the two-torsion datum.

    datum: orbit label n (or a TwoTorsionClass) for h = 8; the theta
    parity q in {0, 1} for h = 10, with None or a zero class meaning no
    torsion choice; a boolean nonzero-torsion flag for h >= 12.
    """
    h = int(h)
    if h % 2 != 0:
        raise ValueError("height must be even")
    if h < 0:
        raise ValueError("height must be non-negative")
    if h <= 6:
        return "empty"
    if h == 8:
        if isinstance(datum, TwoTorsionClass):
            n = torsion_orbit_label(datum)
        else:
            n = int(datum)
        if n == 0:
            return "S5-only"
        if n == 1:
            return "W-component-A"
        if n == 2:
            return "W-component-B"
        raise ValueError("orbit label out of range for height 8")
    if h == 10:
        if datum is None:
            return "S5-only"
        if isinstance(datum, TwoTorsionClass):
            if datum.is_zero():
                return "S5-only"
            raise ValueError("height 10 needs the theta parity, not a subset class")
        q = int(datum)
        if q == 0:
            return "W-component-A"
        if q == 1:
            return "W-component-B"
        raise ValueError("theta parity must be 0 or 1")
    if isinstance(datum, TwoTorsionClass):
        nonzero = not datum.is_zero()
    else:
        nonzero = bool(datum)
    return "W-single" if nonzero else "S5-only"
