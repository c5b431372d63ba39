import pytest
from hypothesis import given, settings, strategies as st

from zerosum.groups import Element, mk_cyclic, mk_metacyclic
from zerosum.sequences import (
    NotASubsequence,
    Sequence,
    SequenceParseError,
    format_sequence_file,
    parse_sequence_file,
)

G = mk_metacyclic(15, 11)
D6 = mk_metacyclic(3, 2)


def seq_of(g, *terms):
    return Sequence.from_terms(g, terms)


@st.composite
def random_sequence(draw, max_len=12):
    n = draw(st.integers(min_value=0, max_value=max_len))
    terms = draw(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 14)).map(lambda t: Element(*t)),
        min_size=n, max_size=n,
    ))
    return Sequence.from_terms(G, terms)


def test_concat_examples():
    x = Element(1, 0)
    a = seq_of(G, x)
    assert a.concat(a).multiplicity(x) == 2
    assert a.concat(a).length == 2
    assert a.concat(Sequence.empty(G)) == a
    with pytest.raises(ValueError):
        a.concat(seq_of(D6, Element(1, 0)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_sequence(), random_sequence())
def test_concat_properties(a, b):
    ab, ba = a.concat(b), b.concat(a)
    assert ab.length == a.length + b.length
    assert ab == ba and hash(ab) == hash(ba)  # sorted counts make multiset equality structural


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_sequence(), random_sequence())
def test_remove_concat_roundtrip(a, b):
    assert a.concat(b).remove(b) == a


def test_remove_examples():
    x, y = Element(1, 0), Element(0, 1)
    s = seq_of(G, x, x, y)
    assert s.remove(s) == Sequence.empty(G)
    assert s.remove(seq_of(G, x)) == seq_of(G, x, y)
    with pytest.raises(NotASubsequence):
        seq_of(G, x).remove(seq_of(G, y))


def test_restrict_parts():
    s = Sequence.from_counts(G, {Element(0, 1): 3, Element(1, 1): 2})
    assert s.x_part().length == 2
    assert s.y_part().length == 3
    assert s.y_part().length + s.x_part().length == s.length
    # extremal shape has exactly one term outside <y>
    ext = Sequence.from_counts(G, {Element(0, 1): 29, Element(0, 2): 14, Element(1, 7): 1})
    assert ext.x_part().length == 1


def test_sequence_equality_examples():
    x, y = Element(1, 0), Element(0, 1)
    assert seq_of(G, x, y) == seq_of(G, y, x)
    assert hash(seq_of(G, x, y)) == hash(seq_of(G, y, x))
    s = seq_of(G, x)
    assert s != s.concat(seq_of(G, y))
    # the group is part of the value
    assert seq_of(G, y) != seq_of(D6, Element(0, 1))
    assert len({seq_of(G, x, y), seq_of(G, y, x), seq_of(G, x)}) == 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_sequence())
def test_restrict_partition_reassembles(s):
    assert s.y_part().concat(s.x_part()) == s


def test_parse_file_roundtrip():
    text = "group metacyclic n=15 s=11\nseq y^1 * 29, y^2 * 14, x*y^7 * 1\n"
    s = parse_sequence_file(text)
    assert s.length == 44
    assert s.multiplicity(Element(0, 1)) == 29
    assert parse_sequence_file(format_sequence_file(s)) == s
    # whitespace-insensitive
    s2 = parse_sequence_file("group metacyclic n=15 s=11\nseq y^1*29,y^2 * 14 ,  x*y^7 *1\n")
    assert s2 == s
    # a blank `seq ` body is the empty sequence, as gao prints the C1 certificate
    for g in (mk_cyclic(1), G):
        text = format_sequence_file(Sequence.empty(g))
        assert text.endswith("\nseq \n")
        assert parse_sequence_file(text) == Sequence.empty(g)


def test_parse_errors_carry_position():
    with pytest.raises(SequenceParseError) as e:
        parse_sequence_file("group metacyclic n=15 s=11\nseq y^1 * 29, bogus, y^2 * 1\n")
    assert e.value.line == 2
    assert e.value.col > 1
    with pytest.raises(SequenceParseError, match="missing group"):
        parse_sequence_file("\n")
    with pytest.raises(SequenceParseError, match="before group"):
        parse_sequence_file("seq y^1 * 1\ngroup cyclic n=5\n")
    with pytest.raises(SequenceParseError):
        parse_sequence_file("group cyclic n=5\nseq y^1 * 0\n")
    with pytest.raises(SequenceParseError):
        parse_sequence_file("group cyclic n=5\nseq x * 1\n")


def test_multiplicity_merging():
    s = Sequence.from_counts(G, [(Element(0, 1), 2), (Element(0, 1), 3)])
    assert s.multiplicity(Element(0, 1)) == 5
    with pytest.raises(ValueError):
        Sequence(G, ((Element(0, 1), 0),))
