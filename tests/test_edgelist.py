import re

import pytest

from stcsolve import Graph, ParseError, format_edge_list, parse_edge_list


def test_parse_simple():
    g = parse_edge_list("a b\nb c\n")
    assert g.vertices == ("a", "b", "c")
    assert g.m == 2


def test_parse_comments_and_blanks():
    text = """
    # a triangle
    a b
    b c   # closing edge follows

    a c
    """
    g = parse_edge_list(text)
    assert g.m == 3


def test_parse_isolated_vertices():
    g = parse_edge_list("vertex solo\na b\n")
    assert g.vertices == ("a", "b", "solo")
    assert g.degree("solo") == 0


def test_parse_repeated_vertex_lines_are_fine():
    g = parse_edge_list("vertex a\nvertex a\na b\n")
    assert g.n == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("a b\na b c\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("a a\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_edge_list("a b\nb a\n")
    with pytest.raises(ParseError, match="vertex line"):
        parse_edge_list("vertex a b\n")


def test_format_sorts_and_declares_isolated():
    g = Graph(["z", "m", "a", "b"], [("z", "a"), ("a", "b")])
    assert format_edge_list(g) == "vertex m\na b\na z\n"


def test_empty_graph_formats_to_nothing():
    assert format_edge_list(Graph([], [])) == ""


def test_roundtrip():
    g = Graph(["a", "b", "c", "lonely"], [("a", "b"), ("b", "c")])
    assert parse_edge_list(format_edge_list(g)) == g


def test_roundtrip_keeps_edges_of_a_vertex_labelled_vertex():
    """An edge line starting with `vertex` reads back as a declaration, so
    such an edge must be written with `vertex` second."""
    for g in (
        Graph(["a", "vertex", "x"], [("a", "vertex"), ("vertex", "x")]),
        Graph(["vertex", "x", "y"], [("vertex", "y")]),
        Graph(["a", "b", "vertex"], [("a", "b")]),
        Graph(["vertex"], []),
    ):
        assert parse_edge_list(format_edge_list(g)) == g


def test_format_refuses_labels_that_would_not_read_back():
    for label in ("#a", "a#b", "", "a b", " a", "a\tb", "a\nb"):
        g = Graph([label, "z"], [(label, "z")])
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            format_edge_list(g)
        with pytest.raises(ValueError):
            format_edge_list(Graph([label]))
    g = Graph(["vertex", "x-1", "ü", "a.b"], [("x-1", "ü")])
    assert parse_edge_list(format_edge_list(g)) == g
