"""JSON codecs: rationals as strings, forms, matrices, pencils, families,
plane curves, divisors, canonical rendering."""

import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp4.biforms import BiForm
from dp4.binforms import BinaryForm
from dp4.families import FamilySpec
from dp4.models import build_example
from dp4.pencils import SymmetricPencil
from dp4.plane_quintic import pencil_fixture
from dp4.serialize import (
    decode_curve,
    decode_divisor,
    decode_family,
    decode_form,
    decode_matrix,
    decode_pencil,
    decode_rational,
    dumps_canonical,
    encode_biform,
    encode_curve,
    encode_divisor,
    encode_family,
    encode_form,
    encode_matrix,
    encode_pencil,
    encode_rational,
)

F = Fraction


def test_rational_roundtrip():
    for x in (F(0), F(5), F(-7, 3), F(22, 7)):
        assert decode_rational(encode_rational(x)) == x
    assert encode_rational(F(1, 2)) == "1/2"
    assert encode_rational(F(3)) == "3"
    assert decode_rational("4") == F(4)


@pytest.mark.parametrize("digits", [1, 3011, 3012, 4300, 4301, 9000, 30000])
def test_rational_encode_has_no_digit_limit(digits):
    # str() of an int above 4300 digits raises; computed values print in full
    rng = random.Random(digits)
    num = rng.randrange(10 ** (digits - 1), 10**digits)
    den = rng.randrange(10 ** (digits - 1), 10**digits) | 1
    x = F(-num, den)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(x.numerator) + (f"/{x.denominator}" if x.denominator > 1 else ""), str(num)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (encode_rational(x), encode_rational(F(num))) == expected


def test_rational_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_rational("one half")


def test_rational_decode_accepts_only_integers_and_quotients():
    assert decode_rational(-7) == F(-7)
    assert decode_rational("+4/6") == F(2, 3)
    assert decode_rational("-0012") == F(-12)
    for bad in (True, False, 1.5, None, [], "0.5", "1e3", "1E3", " 1", "1 ", "1/",
                "/2", "1/-2", "1_000", "\u0663", "inf", "nan", "1/0"):
        with pytest.raises(ValueError):
            decode_rational(bad)


def test_rational_decode_names_the_field_past_the_digit_limit():
    # CPython's own message would say "use sys.set_int_max_str_digits()"
    assert decode_rational("-" + "9" * 4300) == -(10**4300 - 1)
    for text in ("9" * 4301, "+" + "9" * 4301, "1/" + "9" * 4301, "0" + "9" * 4300):
        with pytest.raises(ValueError) as exc:
            decode_rational(text, "matrix entry")
        assert str(exc.value) == (
            "matrix entry has an integer of 4301 digits; dp4 reads integers of at most 4300 digits"
        )


def test_rational_decode_rejects_huge_exponent_quickly():
    # Fraction would expand this to a 3.3-billion-bit integer
    start = time.perf_counter()
    with pytest.raises(ValueError):
        decode_rational("1e1000000000")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "tree",
    [
        {"degree": "2", "coeffs": ["1", "0", "1"]},
        {"degree": 2.0, "coeffs": ["1", "0", "1"]},
        {"degree": True, "coeffs": ["1", "0"]},
        {"degree": 1, "coeffs": "12"},
        {"degree": 1, "coeffs": {"1": "2"}},
    ],
)
def test_form_decode_rejects_mistyped_fields(tree):
    with pytest.raises(ValueError):
        decode_form(tree)


def test_matrix_decode_rejects_mistyped_fields():
    for tree in (["1"], [["1"], "2"], [{"a": "1"}]):
        with pytest.raises(ValueError):
            decode_matrix(tree)


def test_form_roundtrip():
    rng = random.Random(501)
    for _ in range(10):
        d = rng.randint(0, 6)
        f = BinaryForm(d, tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)))
        assert decode_form(encode_form(f)) == f


def test_encode_biform_tree():
    # the discriminant tree that `examples build h8_conic` prints
    f = BiForm(1, 2, ((F(0), F(1), F(-2)), (F(1, 3), F(0), F(5))))
    assert encode_biform(f) == {
        "bidegree": [1, 2],
        "grid": [["0", "1", "-2"], ["1/3", "0", "5"]],
    }


def test_matrix_roundtrip():
    rng = random.Random(503)
    m = [[F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(5)] for _ in range(5)]
    out = decode_matrix(encode_matrix(m))
    assert out == m


def test_pencil_roundtrip():
    grams = (
        tuple(tuple(F(1) if i == j else F(0) for j in range(5)) for i in range(5)),
        tuple(tuple(F(i) if i == j else F(0) for j in range(5)) for i in range(5)),
    )
    pencil = SymmetricPencil(*grams)
    tree = encode_pencil(pencil)
    assert tree["type"] == "pencil"
    back = decode_pencil(tree)
    assert back.P == pencil.P and back.Q == pencil.Q


def test_pencil_decode_rejects_malformed():
    with pytest.raises(ValueError, match="pencil needs"):
        decode_pencil({"type": "pencil", "P": [["1"]]})
    bad5 = [["1"] * 5 for _ in range(5)]
    bad5[0][1] = "2"  # asymmetric
    good5 = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    with pytest.raises(ValueError, match="malformed pencil"):
        decode_pencil({"type": "pencil", "P": bad5, "Q": good5})


def test_family_roundtrip():
    spec = build_example("h10_ci", seed=1)
    tree = encode_family(spec)
    assert tree["type"] == "family"
    back = decode_family(tree)
    assert back == spec


def test_family_roundtrip_h8():
    spec = build_example("h8_ci", seed=1)
    back = decode_family(encode_family(spec))
    assert back == spec


def test_curve_roundtrip():
    fx = pencil_fixture()
    tree = encode_curve(fx.curve)
    assert tree["type"] == "plane-quintic"
    assert tree["degree"] == 5
    assert len(tree["coeffs"]) == 21
    back = decode_curve(tree)
    assert back == fx.curve


def test_divisor_roundtrip():
    div = [((F(1), F(2), F(3)), 1), ((F(0), F(1), F(-1)), 2)]
    tree = encode_divisor(div)
    back = decode_divisor(tree)
    assert back == [((F(1), F(2), F(3)), 1), ((F(0), F(1), F(-1)), 2)]


def test_divisor_rejects_zero_point():
    with pytest.raises(ValueError):
        decode_divisor([{"point": ["0", "0", "0"], "mult": 1}])


def test_divisor_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        decode_divisor([{"point": ["1", "0", "0"], "mult": 0}])


@pytest.mark.parametrize("mult", [True, 1.0, "1"])
def test_divisor_rejects_non_integer_multiplicity(mult):
    with pytest.raises(ValueError):
        decode_divisor([{"point": ["1", "0", "0"], "mult": mult}])


def test_dumps_canonical_stable():
    tree = {"b": [1, 2], "a": {"y": "2", "x": "1"}}
    s1 = dumps_canonical(tree)
    s2 = dumps_canonical({"a": {"x": "1", "y": "2"}, "b": [1, 2]})
    assert s1 == s2
    assert s1.endswith("\n")
    assert json.loads(s1) == tree


def test_dumps_canonical_sorted_keys():
    s = dumps_canonical({"z": 1, "a": 2})
    assert s.index('"a"') < s.index('"z"')


# ---------------------------------------------------------------------------
# malformed trees: every decoder returns or raises ValueError

DECODERS = [
    decode_rational,
    decode_form,
    decode_matrix,
    decode_pencil,
    decode_family,
    decode_curve,
    decode_divisor,
]

KEYS = ["degree", "coeffs", "type", "P", "Q", "d", "e", "A1", "A2", "point", "mult"]

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats()
    | st.sampled_from(["0", "1", "-2/3", "1/0", "0.5", "1e5", " 1", "x", ""])
    | st.text(max_size=4)
)
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=30,
)


def valid_trees():
    diagonal = [[F(int(i == j) * (i + 1)) for j in range(5)] for i in range(5)]
    constant = tuple(tuple(BinaryForm.constant(x) for x in row) for row in diagonal)
    return [
        "-3/4",
        encode_form(BinaryForm.from_roots([0, 1, F(1, 2)])),
        encode_matrix([[F(1), F(2)], [F(2), F(-1, 3)]]),
        encode_pencil(SymmetricPencil(diagonal, diagonal)),
        encode_family(FamilySpec((0,) * 5, (0, 0), constant, constant)),
        encode_curve(pencil_fixture().curve),
        encode_divisor([((F(1), F(2), F(3)), 1), ((F(0), F(1), F(-1)), 2)]),
    ]


VALID = valid_trees()


def subtree_paths(tree, path=()):
    yield path
    if isinstance(tree, (list, dict)):
        for key in sorted(tree) if isinstance(tree, dict) else range(len(tree)):
            yield from subtree_paths(tree[key], path + (key,))


def paths_by_depth(tree):
    out: dict[int, list] = {}
    for path in subtree_paths(tree):
        out.setdefault(len(path), []).append(path)
    return [out[depth] for depth in sorted(out)]


PATHS = [paths_by_depth(tree) for tree in VALID]


def replaced(tree, path, value):
    if not path:
        return value
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    copy[path[0]] = replaced(tree[path[0]], path[1:], value)
    return copy


def test_valid_trees_decode():
    for decoder, tree in zip(DECODERS, VALID):
        decoder(tree)


ODD_VALUES = [None, True, 1.5, float("inf"), 7, -1, "x", "1e3", "1", [], ["1"], {}, {"degree": 0}]


@pytest.mark.parametrize("index", range(len(DECODERS)), ids=lambda i: DECODERS[i].__name__)
def test_decoders_survive_every_subtree_swap(index):
    # each subtree of a valid tree, swapped for each of a few values of
    # every JSON type
    for path in subtree_paths(VALID[index]):
        for value in ODD_VALUES:
            tree = replaced(VALID[index], path, value)
            try:
                DECODERS[index](tree)
            except ValueError:
                pass


@settings(max_examples=400)
@given(st.integers(0, len(DECODERS) - 1), st.data())
def test_decoders_raise_only_value_error(index, data):
    # a valid tree of the decoder's own type (or, one time in four, of
    # another type) with one subtree, at a depth drawn first, swapped for an
    # arbitrary JSON tree; depth 0 swaps the whole tree
    if data.draw(st.integers(0, 3)) == 0:
        source = data.draw(st.integers(0, len(VALID) - 1))
    else:
        source = index
    level = data.draw(st.sampled_from(PATHS[source]))
    path = data.draw(st.sampled_from(level))
    tree = replaced(VALID[source], path, data.draw(json_trees))
    try:
        DECODERS[index](tree)
    except ValueError:
        pass
