import hashlib
import re
from collections import Counter
from enum import IntEnum
from itertools import product

import pytest

from commrep import Lattice, LatticeError, chain, divisor_lattice

from util import lattice_catalog


def test_two_chain():
    lat = chain(2, ["0", "1"])
    assert lat.top == lat.index("1")
    assert lat.bottom == lat.index("0")
    assert lat.meet(0, 1) == 0
    assert lat.join(0, 1) == 1


def test_div52_tables(div52):
    assert div52.names == ("1", "2", "4", "13", "26", "52")
    assert div52.name(div52.top) == "52"
    assert div52.name(div52.bottom) == "1"
    assert div52.meet(div52.index("26"), div52.index("4")) == div52.index("2")
    assert div52.join(div52.index("2"), div52.index("13")) == div52.index("26")


def test_big_meet_join(div52):
    i = div52.index
    assert div52.big_meet([i("26"), i("4")]) == i("2")
    assert div52.big_meet([]) == div52.top
    assert div52.big_join([]) == div52.bottom
    assert div52.big_join([i("2"), i("13")]) == i("26")


def test_lower_covers(div52):
    i = div52.index
    assert set(div52.lower_covers(i("52"))) == {i("4"), i("26")}
    assert div52.lower_covers(i("1")) == ()
    three = chain(3, ["0", "alpha", "1"])
    assert three.lower_covers(2) == (1,)


def rejects(names, meet, join, message):
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        Lattice(names, meet, join)


# meet = min on the chain 0 < 1 < 2
MIN3 = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
MAX3 = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
# commutative and idempotent, but (p∘p)∘q = p∘q = r while p∘(p∘q) = p∘r = q
CYCLE3 = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def test_noncommutative_meet_rejected():
    meet = [[0, 0], [1, 1]]  # meet(0,1)=0 but meet(1,0)=1
    join = [[0, 1], [1, 1]]
    rejects(["0", "1"], meet, join, "meet is not commutative at (0, 1)")
    rejects(["0", "1"], join, meet, "join is not commutative at (0, 1)")


def test_nonidempotent_rejected():
    two = ["0", "1"]
    rejects(two, [[0, 0], [0, 0]], [[0, 1], [1, 1]], "meet is not idempotent at 1")
    rejects(two, [[0, 0], [0, 1]], [[1, 1], [1, 1]], "join is not idempotent at 0")


def test_nonassociative_rejected():
    names = ["p", "q", "r"]
    rejects(names, CYCLE3, MAX3, "meet is not associative at (p, p, q)")
    rejects(names, MIN3, CYCLE3, "join is not associative at (p, p, q)")


def test_absorption_violation_rejected():
    # join = meet = min: a∧(a∨b) = a∧b, which is b < a at (1, 0)
    low = [[0, 0], [0, 1]]
    rejects(["0", "1"], low, low, "absorption a∧(a∨b)=a fails at (1, 0)")
    # meet = min on 0 < 1 < 2 and every join of distinct elements is 2:
    # the first law holds, the second fails at 1∨(1∧0) = 2
    join = [[0, 2, 2], [2, 1, 2], [2, 2, 2]]
    rejects(["0", "1", "2"], MIN3, join, "absorption a∨(a∧b)=a fails at (1, 0)")


def test_out_of_range_table_entry():
    two, join = ["0", "1"], [[0, 1], [1, 1]]
    rejects(two, [[0, 0], [0, 5]], join, "meet table entry at (1, 1) is out of range 0..1")
    rejects(two, join, [[0, -1], [1, 1]], "join table entry at (0, 1) is out of range 0..1")


@pytest.mark.parametrize(
    "entry", [1.0, True, "1", None], ids=["float", "bool", "str", "none"]
)
def test_non_integer_table_entry(entry):
    two, bad = ["0", "1"], [[0, 0], [0, entry]]
    rejects(two, bad, [[0, 1], [1, 1]], "meet table must contain element indices")
    rejects(two, [[0, 0], [0, 1]], bad, "join table must contain element indices")


def test_integral_table_entries_become_ints():
    # an Integral that is not exactly an int passes the entry check, is
    # range-checked like one and is stored as a plain int
    Index = IntEnum("Index", [("ZERO", 0), ("ONE", 1), ("TWO", 2)])
    two, join = ["0", "1"], [[0, 1], [1, 1]]
    lat = Lattice(two, [[Index.ZERO, 0], [0, Index.ONE]], [[0, Index.ONE], join[1]])
    assert lat == chain(2, two)
    for table in (lat.meet_table, lat.join_table):
        assert all(type(x) is int for row in table for x in row)
    rejects(two, [[0, 0], [0, Index.TWO]], join, "meet table entry at (1, 1) is out of range 0..1")


def test_table_shape_rejected():
    two, join = ["0", "1"], [[0, 1], [1, 1]]
    ragged = "got ragged rows of lengths"
    rejects(two, [[0, 0], [0]], join, f"meet table must be 2x2, {ragged} [2, 1]")
    rejects(two, join, [[0, 1, 1], [1, 1, 1]], "join table must be 2x2, got shape (2, 3)")
    rejects(two, [0, 0], join, "meet table must be 2x2, got shape (2,)")
    rejects(two, [], join, "meet table must be 2x2, got shape (0,)")
    rejects(two, 5, join, "meet table must be 2x2, got shape ()")
    message = f"^{re.escape(f'leq matrix must be 2x2, {ragged} [1, 2]')}$"
    with pytest.raises(LatticeError, match=message):
        Lattice.from_leq(two, [[1], [0, 1]])


def test_duplicate_names_rejected():
    with pytest.raises(LatticeError, match="distinct"):
        Lattice(["x", "x"], [[0, 0], [0, 1]], [[0, 1], [1, 1]])


def test_from_leq_matches_tables(div52):
    rebuilt = Lattice.from_leq(div52.names, div52.leq_matrix)
    assert rebuilt == div52


@pytest.mark.parametrize("entry", ["no", 0.5, [], None, 2], ids=repr)
def test_from_leq_rejects_entries_other_than_booleans_and_0_1(entry):
    # a truthy string or float once read as "<=", an empty list as its negation
    message = f"leq matrix entry at (0, 1) must be true, false, 0 or 1, got {entry!r}"
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        Lattice.from_leq(["a", "b"], [[True, entry], [False, True]])


@pytest.mark.parametrize("yes, no", [(True, False), (1, 0), (True, 0), (1, False)])
def test_from_leq_accepts_booleans_and_0_1(yes, no):
    assert Lattice.from_leq(["a", "b"], [[yes, yes], [no, yes]]) == chain(2, ["a", "b"])


def test_empty_lattice_rejected():
    with pytest.raises(LatticeError, match="^a lattice needs at least one element$"):
        Lattice([], [], [])


@pytest.mark.parametrize("n", [0, -1, -12])
def test_divisor_lattice_needs_a_positive_n(n):
    with pytest.raises(ValueError, match=rf"^divisor_lattice needs n >= 1, got {n}$") as err:
        divisor_lattice(n)
    assert not isinstance(err.value, LatticeError)
    assert divisor_lattice(1).names == ("1",)


def test_equal_lattices_hash_alike_and_repr():
    assert hash(chain(3)) == hash(Lattice.from_leq(chain(3).names, chain(3).leq_matrix))
    assert hash(divisor_lattice(12)) == hash(divisor_lattice(12))
    assert repr(chain(2)) == "Lattice(['0', '1'])"


def test_from_leq_non_lattice_rejected():
    # 0 below everything, x and y below both a and b: x, y have two minimal
    # upper bounds, and in the reversed order two maximal lower bounds
    names = ["0", "x", "y", "a", "b"]
    leq = [[int(i == j or i == 0) for j in range(5)] for i in range(5)]
    leq[1][3] = leq[1][4] = leq[2][3] = leq[2][4] = 1
    with pytest.raises(LatticeError, match=r"^order has no least upper bound for \(x, y\)$"):
        Lattice.from_leq(names, leq)
    with pytest.raises(LatticeError, match=r"^order has no greatest lower bound for \(x, y\)$"):
        Lattice.from_leq(names, [list(col) for col in zip(*leq)])


def _outcome(build) -> str:
    try:
        lat = build()
    except LatticeError as e:
        return f"error: {e}"
    return f"ok: top {lat.top} bottom {lat.bottom} leq {lat.leq_matrix}"


def _message_kinds(outcomes) -> Counter:
    return Counter(re.sub(r" (at|for) \(?[\d, ]+\)?$", "", o) for o in outcomes)


def test_every_small_relation_and_table_pair():
    # Every 0/1 relation on 1-4 elements through from_leq, and every pair of
    # 2x2 meet/join tables with entries 0/1 through Lattice.  The digests
    # pin each verdict, each message and each accepted order, top and bottom
    # in input order; the counts name what the inputs reach.  No input
    # reaches an order-consistency, unique top/bottom or derived-order
    # failure: the checks above them already imply those properties.
    relations = []
    for m in range(1, 5):
        names = [str(i) for i in range(m)]
        for bits in product((0, 1), repeat=m * m):
            rel = [bits[i * m : (i + 1) * m] for i in range(m)]
            relations.append(_outcome(lambda: Lattice.from_leq(names, rel)))
    assert len(relations) == 66066
    assert _message_kinds(o for o in relations if o.startswith("error")) == {
        "error: order has no greatest lower bound": 46591,
        "error: order has no least upper bound": 18038,
        "error: meet is not idempotent": 1338,
        "error: meet is not associative": 54,
    }
    assert sum(o.startswith("ok") for o in relations) == 45
    assert hashlib.sha256("\n".join(relations).encode()).hexdigest() == (
        "70fd149706c1f751931ae6678d6029b7433adb46f862c6af076b1002bf55b174"
    )

    tables = [[bits[:2], bits[2:]] for bits in product((0, 1), repeat=4)]
    pairs = [_outcome(lambda: Lattice(["0", "1"], mt, jt)) for mt in tables for jt in tables]
    assert _message_kinds(o for o in pairs if o.startswith("error")) == {
        "error: meet is not commutative": 128,
        "error: meet is not idempotent": 96,
        "error: join is not commutative": 16,
        "error: join is not idempotent": 12,
        "error: absorption a∧(a∨b)=a fails": 2,
    }
    assert sorted(o for o in pairs if o.startswith("ok")) == [
        "ok: top 0 bottom 1 leq ((True, False), (True, True))",
        "ok: top 1 bottom 0 leq ((True, True), (False, True))",
    ]
    assert hashlib.sha256("\n".join(pairs).encode()).hexdigest() == (
        "2def87c9385555e1e3af373d67ccda993c462727be10b293dc86159ad7dcd59b"
    )


def test_resolve_and_index(div52):
    assert div52.resolve("26") == div52.index("26")
    assert div52.resolve(3) == 3
    # resolve reads the name table itself, with index's error and text
    assert [div52.resolve(n) for n in div52.names] == list(range(div52.m))
    for lookup in (div52.index, div52.resolve):
        with pytest.raises(ValueError, match=r"^unknown lattice element '7'$") as err:
            lookup("7")
        assert err.value.__cause__ is None and err.value.__suppress_context__
    with pytest.raises(ValueError):
        div52.resolve(17)
    with pytest.raises(ValueError):
        div52.resolve(2.5)
    # plain ints take a fast path; the rest of the contract is unchanged
    with pytest.raises(ValueError, match="cannot interpret True as a lattice element"):
        div52.resolve(True)
    for i in (-1, div52.m):
        with pytest.raises(ValueError, match=rf"element index {i} out of range 0\.\.{div52.m - 1}$"):
            div52.resolve(i)
    Slot = IntEnum("Slot", [("FOUR", 4), ("SIX", 6)])
    assert div52.resolve(Slot.FOUR) == 4 and type(div52.resolve(Slot.FOUR)) is int
    with pytest.raises(ValueError, match=r"element index 6 out of range 0\.\.5$"):
        div52.resolve(Slot.SIX)


def test_single_element_lattice():
    lat = chain(1)
    assert lat.top == lat.bottom == 0
    assert lat.big_meet([]) == 0


def test_tables_immutable(div52):
    for table in (div52.meet_table, div52.join_table, div52.leq_matrix):
        with pytest.raises(TypeError):
            table[0][0] = 1
        with pytest.raises(TypeError):
            table[0] = table[1]


@pytest.mark.parametrize("lat", lattice_catalog(), ids=lambda l: ",".join(l.names))
def test_order_laws_exhaustive(lat):
    for a in range(lat.m):
        assert lat.meet(a, lat.top) == a
        assert lat.join(a, lat.bottom) == a
        for b in range(lat.m):
            assert lat.leq(a, b) == (lat.meet(a, b) == a) == (lat.join(a, b) == b)


@pytest.mark.parametrize("lat", lattice_catalog(), ids=lambda l: ",".join(l.names))
def test_covers_generate_order(lat):
    for a in range(lat.m):
        covers = lat.lower_covers(a)
        # an antichain
        for x in covers:
            for y in covers:
                assert x == y or not lat.leq(x, y)
        # every strictly smaller element reaches a through some cover
        for b in range(lat.m):
            if lat.leq(b, a) and b != a:
                assert any(lat.leq(b, c) for c in covers)


def test_divisor_lattice_12():
    lat = divisor_lattice(12)
    assert lat.names == ("1", "2", "3", "4", "6", "12")
    assert lat.meet(lat.index("4"), lat.index("6")) == lat.index("2")
    assert lat.join(lat.index("4"), lat.index("3")) == lat.index("12")
