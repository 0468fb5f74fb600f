"""The 16 exceptional classes in the rank-6 lattice, their incidence graph,
the five pair partitions, and the signed-permutation symmetry group."""

import json

import pytest

from dp4 import lines
from dp4.lines import (
    SignedPermutation,
    lines16,
    load_golden,
    no_intermediate_subgroup,
    pairing,
    partitions5,
    report,
    spectrum_charpoly,
    triangle_free,
    weyl_group,
)

ANTICANONICAL = (3, 1, 1, 1, 1, 1)


def test_sixteen_classes():
    cfg = lines16()
    assert len(cfg.classes) == 16


def test_classes_are_lines():
    cfg = lines16()
    for c in cfg.classes:
        assert pairing(c, c) == -1
        assert pairing(c, ANTICANONICAL) == 1


def test_incidence_five_regular():
    cfg = lines16()
    for i in range(16):
        assert cfg.incidence[i][i] == 0
        assert sum(cfg.incidence[i]) == 5
    for i in range(16):
        for j in range(16):
            assert cfg.incidence[i][j] == cfg.incidence[j][i]
            assert cfg.incidence[i][j] in (0, 1)


def test_sum_of_lines_is_minus_four_canonical():
    cfg = lines16()
    total = [sum(c[k] for c in cfg.classes) for k in range(6)]
    assert total == [4 * x for x in ANTICANONICAL]


def test_exactly_five_partitions():
    parts = partitions5()
    assert len(parts) == 5


def test_partitions_cover_all_lines():
    for side_a, side_b in partitions5():
        assert len(side_a) == 8 and len(side_b) == 8
        assert side_a | side_b == frozenset(range(16))
        assert not side_a & side_b


def test_partition_sides_decompose_into_pairs():
    cfg = lines16()
    for side_a, side_b in partitions5():
        for side in (side_a, side_b):
            # greedy matching must succeed: each line pairs with exactly one
            # incident line inside its side
            used = set()
            for v in sorted(side):
                if v in used:
                    continue
                partners = [
                    w for w in side if w not in used and w != v and cfg.incidence[v][w]
                ]
                assert partners, f"line {v} unmatched"
                used.add(v)
                used.add(partners[0])
            assert used == set(side)


def test_group_order_1920():
    group = weyl_group()
    assert group.order == 1920


def test_kernel_order_and_free_transitivity():
    group = weyl_group()
    kernel = group.kernel()
    assert len(kernel) == 16
    images = {e.line_perm[0] for e in kernel}
    assert len(images) == 16
    for e in kernel:
        if e.line_perm != tuple(range(16)):
            assert all(e.line_perm[v] != v for v in range(16))


def test_quotient_is_s5():
    group = weyl_group()
    perms = {e.signed.perm for e in group.elements}
    assert len(perms) == 120
    assert group.order // len(group.kernel()) == 120


def test_signed_permutations_have_even_sign_count():
    group = weyl_group()
    for e in group.elements:
        assert sum(1 for s in e.signed.signs if s == -1) % 2 == 0


@pytest.mark.parametrize(
    "bad, message",
    [
        (SignedPermutation((0, 0, 2, 3, 4), (1, 1, 1, 1, 1)), "permutation of 0..4"),
        (SignedPermutation((0, 1, 2, 3, 4), (-1, 1, 1, 1, 1)), "odd number"),
    ],
)
def test_weyl_group_checks_every_action(monkeypatch, request, bad, message):
    # one corrupted action, on the identity, is enough to refuse the group
    request.addfinalizer(weyl_group.cache_clear)
    action = lines._partition_action
    identity = tuple(range(16))
    monkeypatch.setattr(
        lines, "_partition_action", lambda p: bad if p == identity else action(p)
    )
    weyl_group.cache_clear()
    with pytest.raises(RuntimeError, match=message):
        weyl_group()


def test_no_intermediate_subgroup():
    assert no_intermediate_subgroup() is True


def test_kernel_argument_refuses_a_kernel_element_in_the_index_copy(monkeypatch):
    group = weyl_group()
    s5 = group.index_copy()
    swapped = s5[:-1] + (group.kernel()[-1],)
    monkeypatch.setattr(lines.WeylGroup, "index_copy", lambda self: swapped)
    with pytest.raises(RuntimeError, match="meet beyond the identity"):
        no_intermediate_subgroup()


def test_kernel_argument_refuses_a_missing_element(monkeypatch):
    group = weyl_group()
    inside = set(group.kernel()) | set(group.index_copy())
    dropped = next(e for e in group.elements if e not in inside)
    smaller = lines.WeylGroup(tuple(e for e in group.elements if e != dropped))
    monkeypatch.setattr(lines, "weyl_group", lambda: smaller)
    with pytest.raises(RuntimeError, match="do not generate the group"):
        no_intermediate_subgroup()


def test_kernel_argument_refuses_a_subgroup_that_is_not_normalized():
    # the index copy is not normal: a kernel element conjugates it elsewhere
    group = weyl_group()
    s5 = {e.line_perm for e in group.index_copy()}
    with pytest.raises(RuntimeError, match="leaves the kernel"):
        lines._no_invariant_subgroup(s5, [e.line_perm for e in group.kernel()])


def test_index_copy_is_s5_order():
    group = weyl_group()
    assert len(group.index_copy()) == 120


def test_report_matches_golden():
    rep = report()
    golden = load_golden()
    assert rep == golden


def test_report_builds_symmetry_group_once(monkeypatch):
    calls = []
    closure = lines._closure

    def counted(generators, limit):
        calls.append(list(generators))
        return closure(generators, limit)

    monkeypatch.setattr(lines, "_closure", counted)
    weyl_group.cache_clear()
    rep = report()
    # one closure of the five simple reflections; the kernel closures of
    # no_intermediate_subgroup take the conjugates of a kernel element
    reflections = lines._simple_reflections(lines16())
    assert calls.count(reflections) == 1
    assert rep == load_golden()


def _refused(request, message):
    request.addfinalizer(weyl_group.cache_clear)
    weyl_group.cache_clear()
    with pytest.raises(RuntimeError, match=message):
        weyl_group()


def test_weyl_group_refuses_a_reflection_leaving_the_lines(monkeypatch, request):
    # (1; 1, 1, 0, 0, 0) has square -1: its reflection sends E_1 to the
    # class (1; 0, 1, 0, 0, 0) of square 0, which is not a line
    monkeypatch.setattr(
        lines, "SIMPLE_ROOTS", lines.SIMPLE_ROOTS + ((1, 1, 1, 0, 0, 0),)
    )
    _refused(request, "does not permute the 16 lines")


def test_weyl_group_refuses_a_reflection_breaking_incidence(monkeypatch, request):
    # a relabeled line configuration: the reflections still permute the
    # classes, but lines 0 and 1 have swapped their incidence rows
    cfg = lines16()
    swap = [1, 0] + list(range(2, 16))
    incidence = tuple(
        tuple(cfg.incidence[swap[i]][swap[j]] for j in range(16)) for i in range(16)
    )
    monkeypatch.setattr(
        lines, "lines16", lambda: lines.LineConfiguration(cfg.classes, incidence)
    )
    _refused(request, "does not preserve incidence")


def test_weyl_group_refuses_a_missing_simple_root(monkeypatch, request):
    # without h - e1 - e2 - e3 the reflections generate only S5
    monkeypatch.setattr(lines, "SIMPLE_ROOTS", lines.SIMPLE_ROOTS[:-1])
    _refused(request, "order 120, expected 1920")


def test_weyl_group_refuses_an_unbounded_incidence(monkeypatch, request):
    # two lines off line 0 made to meet the same neighbours of line 0, so a
    # symmetry is no longer fixed by line 0 and its neighbours
    cfg = lines16()
    star = [v for v in range(16) if cfg.incidence[0][v]]
    u, w = [v for v in range(1, 16) if not cfg.incidence[0][v]][:2]
    rows = [list(r) for r in cfg.incidence]
    for v in star:
        rows[w][v] = rows[v][w] = rows[u][v]
    incidence = tuple(tuple(r) for r in rows)
    monkeypatch.setattr(
        lines, "lines16", lambda: lines.LineConfiguration(cfg.classes, incidence)
    )
    _refused(request, "same neighbours of line 0")


def test_golden_file_is_canonical_json(tmp_path):
    golden = load_golden()
    assert golden["group_order"] == 1920
    assert golden["kernel_order"] == 16
    assert golden["line_degrees"] == [5] * 16
    assert golden["no_intermediate_subgroup"] is True


def test_spectrum_and_triangles_frozen():
    cp = spectrum_charpoly()
    assert len(cp) == 17
    assert triangle_free() is True
    assert cp == load_golden()["charpoly"]
