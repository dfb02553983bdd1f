"""Fuzzing of the input parsers: every input parses or raises
HoffmanGraphError, never another exception.

The examples are derandomized and bounded, so each run tries the same
inputs and the module adds seconds to the suite.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hoffline.core import HoffmanGraph, HoffmanGraphError, canonical_form
from hoffline.enumeration import connected_slim_graphs, parse_graph6, write_graph6
from hoffline.recognition import is_h_line
from hoffline.spectral import compare_threshold, equals_threshold, smallest_eigenvalue
from hoffline.verify import CatalogEntry, MfsCatalog, build_catalog

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VALID_G6 = [write_graph6(g) for n in (1, 4, 7) for g in connected_slim_graphs(n)][:40]


def _parses_or_refuses(parse, data):
    try:
        parse(data)
    except HoffmanGraphError:
        pass


@st.composite
def _mutated(draw, seeds, alphabet):
    """A seed with one slice replaced, deleted or duplicated."""
    s = draw(st.sampled_from(seeds))
    i = draw(st.integers(0, len(s)))
    j = draw(st.integers(i, len(s)))
    repl = draw(st.one_of(alphabet, st.just(s[i:j] * 2), st.just(s[:0])))
    return s[:i] + repl + s[j:]


@FUZZ
@given(st.one_of(
    st.text(max_size=40),
    st.binary(max_size=40),
    _mutated(VALID_G6, st.text(max_size=4)),
))
@example("~~~")
@example(b"\xff\xfe")
def test_fuzz_parse_graph6(line):
    _parses_or_refuses(parse_graph6, line)


_TOKEN = st.one_of(
    st.integers().map(str),
    st.sampled_from(["s=", "f=", "#", "-", " ", "\n", "\t", "_", "0x1", "1e3"]),
    st.text(max_size=3),
)
VALID_TEXT = [
    HoffmanGraph.build(2, 1, [(0, 1), (0, 2), (1, 2)]).to_text(),
    HoffmanGraph.build(3, 2, [(0, 1), (1, 2), (0, 3), (2, 4)]).to_text(),
]


@FUZZ
@given(st.one_of(
    st.text(max_size=60),
    st.lists(_TOKEN, max_size=20).map("".join),
    _mutated(VALID_TEXT, st.lists(_TOKEN, max_size=4).map("".join)),
))
@example("s=1000000000000 f=0")
@example("s=2 f=1\n0 1\n0 2\n0 2")
def test_fuzz_from_text(text):
    _parses_or_refuses(HoffmanGraph.from_text, text)


@pytest.fixture(scope="module")
def saved_catalog():
    root = tempfile.mkdtemp()
    build_catalog(5).save(os.path.join(root, "cat"))
    yield os.path.join(root, "cat")
    shutil.rmtree(root)


def _catalog_files(directory):
    return sorted(
        os.path.relpath(os.path.join(d, f), directory)
        for d, _dirs, files in os.walk(directory)
        for f in files
    )


@FUZZ
@given(data=st.data())
def test_fuzz_catalog_load_with_one_mutated_file(saved_catalog, data):
    with tempfile.TemporaryDirectory() as root:
        work = os.path.join(root, "cat")
        shutil.copytree(saved_catalog, work)
        name = data.draw(st.sampled_from(_catalog_files(work)), label="file")
        path = os.path.join(work, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        mutated = data.draw(_mutated([raw], st.binary(max_size=8)), label="bytes")
        with open(path, "wb") as fh:
            fh.write(mutated)
        _parses_or_refuses(MfsCatalog.load, work)


def _leaf_paths(doc, prefix=()):
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from _leaf_paths(value, prefix + (key,))
    elif isinstance(doc, list) and doc:
        for i, value in enumerate(doc):
            yield from _leaf_paths(value, prefix + (i,))
    else:
        yield prefix


_JSON_VALUE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.from_regex(r"-?[0-9]{1,4}(/-?[0-9]{1,3})?", fullmatch=True),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@FUZZ
@given(data=st.data())
def test_fuzz_catalog_load_with_one_edited_value(saved_catalog, data):
    with tempfile.TemporaryDirectory() as root:
        work = os.path.join(root, "cat")
        shutil.copytree(saved_catalog, work)
        names = [n for n in _catalog_files(work) if n.endswith(".json")]
        path = os.path.join(work, data.draw(st.sampled_from(names), label="file"))
        with open(path) as fh:
            doc = json.load(fh)
        leaf = data.draw(st.sampled_from(list(_leaf_paths(doc))), label="leaf")
        value = data.draw(_JSON_VALUE, label="value")
        if leaf:
            parent = doc
            for key in leaf[:-1]:
                parent = parent[key]
            parent[leaf[-1]] = value
        else:
            doc = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
        _parses_or_refuses(MfsCatalog.load, work)


def _witness_edit(change):
    """An edit of a witness file's text that applies ``change`` to its
    document."""

    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return edit


def _set_lower(value):
    return _witness_edit(lambda doc: doc["eigen"].update(lower=value))


def _flip_verdict(doc):
    doc["eigen"]["verdict"] = {"below": "at_or_above", "at_or_above": "below"}[doc["eigen"]["verdict"]]


def _flip_equals_threshold(doc):
    doc["eigen"]["equals_threshold"] = not doc["eigen"]["equals_threshold"]


def _zero_char_poly(doc):
    doc["eigen"]["char_poly"] = [0] * len(doc["eigen"]["char_poly"])


def _drop_witness_edge(doc):
    del doc["deletions"]["0"]["edges"][0]


@pytest.mark.parametrize(
    "edit",
    [
        _set_lower("1/0"),
        _set_lower("1e100000000"),
        lambda _text: "[" * 100000,
        _set_lower("-100"),
        _witness_edit(_flip_verdict),
        _witness_edit(_flip_equals_threshold),
        _witness_edit(_zero_char_poly),
        _witness_edit(_drop_witness_edge),
    ],
    ids=[
        "zero-denominator", "huge-exponent", "deep-nesting", "wide-lower",
        "flipped-verdict", "flipped-equals-threshold", "zero-char-poly", "dropped-witness-edge",
    ],
)
def test_catalog_load_refuses_bad_witness(saved_catalog, tmp_path, edit):
    # load derives every certificate again, so an edited value that
    # still parses is refused as well as one that does not
    work = tmp_path / "cat"
    shutil.copytree(saved_catalog, work)
    path = work / "witness" / "mfs5_0.json"
    path.write_text(edit(path.read_text()))
    with pytest.raises(HoffmanGraphError):
        MfsCatalog.load(str(work))


def test_catalog_load_refuses_a_member_filed_under_another_size(tmp_path):
    # the swap keeps the counts and the checksum, and each file is sound
    # on its own, but ``screen`` takes a member's size from its file name
    work = tmp_path / "cat"
    build_catalog(6).save(str(work))
    five, six = work / "witness" / "mfs5_1.json", work / "witness" / "mfs6_0.json"
    text = five.read_text()
    five.write_text(six.read_text())
    six.write_text(text)
    with pytest.raises(HoffmanGraphError, match="has 6 vertices"):
        MfsCatalog.load(str(work))


def test_catalog_load_refuses_a_member_with_a_cover(tmp_path):
    # a line graph filed in place of a member, with the certificates
    # that ``_member`` would derive for it and a matching checksum: its
    # deletions all have covers, so only its own cover gives it away,
    # and ``screen`` would call it forbidden
    cat = build_catalog(6)
    g = next(g for g in connected_slim_graphs(6) if is_h_line(g) is not None)
    interval = smallest_eigenvalue(g)
    cat.entries[6][0] = CatalogEntry(
        graph=g,
        form=canonical_form(g),
        eigen=interval,
        verdict=compare_threshold(interval),
        equals_threshold=equals_threshold(interval),
        witnesses={v: is_h_line(g.delete_slim({v})).to_json_dict() for v in range(g.n)},
    )
    cat.save(str(tmp_path / "cat"))
    with pytest.raises(HoffmanGraphError, match="no forbidden subgraph"):
        MfsCatalog.load(str(tmp_path / "cat"))


def _meta_edit(**changes):
    def edit(doc):
        doc.update(changes)
        return doc

    return edit


@pytest.mark.parametrize(
    "edit, refusal",
    [
        (_meta_edit(n_max=10), "unreadable catalog"),
        (_meta_edit(n_max=10, counts={"5": 2, **{str(n): 0 for n in range(6, 11)}}),
         "unreadable catalog"),
        (_meta_edit(n_max="5"), "unreadable catalog"),
        (_meta_edit(n_max=4), "unreadable catalog"),
        (_meta_edit(n_max=None), "unreadable catalog"),
        (_meta_edit(n_max=True), "unreadable catalog"),
        (_meta_edit(n_max=6), "unreadable catalog"),
        (_meta_edit(counts={"5": 2, "6": 0}), "unreadable catalog"),
        (_meta_edit(counts=[2]), "unreadable catalog"),
        # a supported n_max raised with zero counts for the new sizes:
        # well formed, but ``screen`` would then call a 6-vertex member
        # a line graph, so only the checksum over n_max and counts
        # refuses it
        (_meta_edit(n_max=9, counts={"5": 2, **{str(n): 0 for n in range(6, 10)}}),
         "checksum mismatch"),
    ],
    ids=[
        "ten", "ten-listed", "string", "four", "null", "bool", "raised", "extra-size",
        "counts-list", "raised-listed",
    ],
)
def test_catalog_load_refuses_bad_sizes(saved_catalog, tmp_path, edit, refusal):
    # sizes the build does not support are refused before any member is
    # read; supported ones must match the checksum
    work = tmp_path / "cat"
    shutil.copytree(saved_catalog, work)
    path = work / "catalog.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(HoffmanGraphError, match=refusal):
        MfsCatalog.load(str(work))
