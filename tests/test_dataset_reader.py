"""Writing and reading dataset files: ``causal.dataset_pieces`` and
``DiscreteDataset.from_file``.

The writer must give the bytes of ``ingest.write_report`` of the
dataset document.  A file in that layout is read straight into arrays
by ``causal._canonical_dataset`` (the array reader); any other text by
``json`` and ``from_document`` (the general reader).  Both must give
equal datasets, and the array reader must refuse (return None for)
every text it cannot prove canonical.

A dataset file the CLI writes has a sidecar (``causal.read_sidecar``),
which must give exactly what the text gives, and which the CLI's loader
must ignore unless it matches the text.
"""

import hashlib
import io
import json
import math
import os
import random
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrcausal import causal, cli, ingest, synthetic
from asrcausal.causal import DiscreteDataset
from asrcausal.errors import SchemaError, ToolkitError


def written(data: DiscreteDataset) -> bytes:
    return b"".join(causal.dataset_pieces(data))


def from_bytes(raw: bytes) -> DiscreteDataset:
    """Both readers, as ``fit`` and ``report`` read a file of ``raw``."""
    return DiscreteDataset.from_file(io.BytesIO(raw))


def from_path(path) -> DiscreteDataset:
    """Both readers, on a file on disk."""
    with open(path, "rb") as fh:
        return DiscreteDataset.from_file(fh)


def array_read(raw: bytes) -> DiscreteDataset | None:
    """The array reader alone."""
    return causal._canonical_dataset(io.BytesIO(raw))


def general(raw: bytes) -> DiscreteDataset:
    """The general reader alone."""
    return DiscreteDataset.from_document(ingest.load_json(raw.decode()))


def assert_same(a: DiscreteDataset, b: DiscreteDataset):
    assert a.variables == b.variables
    assert a.categories == b.categories
    # one byte per code up to 256 categories, two bytes up to 65,536
    widest = max(map(len, a.categories.values()), default=0)
    assert a.codes.dtype == b.codes.dtype == (
        np.uint8 if widest <= 256 else np.uint16)
    assert a.codes.shape == b.codes.shape
    assert np.array_equal(a.codes, b.codes)
    assert list(a.continuous) == list(b.continuous)
    for name, column in a.continuous.items():
        other = b.continuous[name]
        assert column.dtype == other.dtype == np.float64
        # bit for bit, so -0.0 and 0.0 differ
        assert np.array_equal(column.view(np.int64), other.view(np.int64))


def dataset(n, k=3, levels=4, columns=("A", "B"), values=None, seed=0):
    """n random rows of k variables with ``levels`` categories each, and
    one float column per name (``values(rng, n)``, default normal)."""
    rng = np.random.default_rng(seed)
    names = [f"V{j}" for j in range(k)]
    categories = {v: [f"c{i}" for i in range(levels)] for v in names}
    codes = rng.integers(0, levels, size=(n, k))
    make = values or (lambda rng, n: rng.normal(size=n))
    return DiscreteDataset(names, categories, codes,
                           {c: make(rng, n) for c in columns})


def small_floats(rng, n):
    # -9.9e-05 .. 9.9e-05 in steps of 1e-06: repr writes 1e-05, -4.2e-05
    return rng.integers(-99, 100, n) * 1e-6


def large_floats(rng, n):
    return rng.choice([1e9, -1e9, 1.5e9, 123456789012.25, 1e15, 1e16, 1e22,
                       -3e300, 2.5e+20], n)


def with_infinity(rng, n):
    values = rng.normal(size=n)
    values[n // 2] = np.inf
    return values


EQUIVALENT = {
    "0 rows": (dataset(0), True),
    "1 row": (dataset(1), True),
    "4095 rows": (dataset(4095), True),
    "4096 rows": (dataset(4096), True),
    "4097 rows": (dataset(4097), True),
    "1 variable": (dataset(30, k=1), True),
    "no continuous columns": (dataset(30, columns=()), True),
    "two-digit codes": (dataset(300, levels=12), True),
    "300 categories": (dataset(300, levels=300), True),
    "negative floats": (dataset(
        300, values=lambda rng, n: -np.abs(rng.normal(size=n)) * 100), True),
    "1e-05-style floats": (dataset(300, values=small_floats), True),
    "floats of 1e9 and above": (dataset(300, values=large_floats), True),
    "paper-shaped": (synthetic.generate(
        synthetic.paper_shaped_spec(n=3000, seed=5)), True),
    # a column's key line is told from a section's by its indent, and its
    # name is read by json
    **{f"a column named {name}": (dataset(30, columns=(name, "Y")), True)
       for name in ("rows", "variables", "continuous", "a,b", 'q"uote', "é",
                    'x": [')},
    # Infinity is no JSON number: only the general reader takes it
    "a column holding Infinity": (dataset(30, values=with_infinity), False),
}


def ties_and_specials(rng, n):
    """Normal floats with NaN, ±inf, -0.0 and 6th-decimal near-ties."""
    values = rng.normal(size=n)
    ties = [(k + 0.5) / 1e6 for k in (0, 7, 12345, 10 ** 9)]
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-7, 1e9, *ties,
               *(math.nextafter(t, d) for t in ties
                 for d in (-math.inf, math.inf))]
    values[rng.choice(n, len(special), replace=False)] = special
    return values


WRITER_CASES = {
    "no rows, two empty columns": dataset(0),
    "no rows, no columns": dataset(0, columns=()),
    "rows with no variables": DiscreteDataset(
        [], {}, np.zeros((5000, 0), np.int64), {"x": np.arange(5000.0)}),
    "uint16 codes of 1000 and up": dataset(5000, levels=1500),
    "NaN, inf and near-ties": dataset(5000, values=ties_and_specials),
    "no continuous columns": dataset(30, columns=()),
    **{f"{n} rows": dataset(n, seed=n)
       for n in (4095, 4096, 4097, 2 * 4096 - 1, 2 * 4096 + 1)},
}


@pytest.mark.parametrize("data", WRITER_CASES.values(), ids=WRITER_CASES)
def test_writer_gives_the_bytes_of_write_report(data):
    pieces = list(causal.dataset_pieces(data))
    raw = b"".join(pieces)
    assert raw == ingest.write_report(data.to_document()).encode()
    # a code row takes a line per code and two for its brackets
    lines = causal._CHUNK * (len(data.variables) + 2)
    assert max(piece.count(b"\n") for piece in pieces) <= lines
    if data.variables and all(np.isfinite(column).all()
                              for column in data.continuous.values()):
        assert_same(array_read(raw), general(raw))


def test_no_piece_holds_more_than_one_chunk():
    data = dataset(10 * causal._CHUNK, k=9)
    pieces = list(causal.dataset_pieces(data))
    longest = max(map(len, pieces))
    # no piece is longer than one chunk of code rows written as a list
    assert longest * 9 < sum(map(len, pieces))
    assert longest <= len(b"".join(causal._list_pieces(
        data.codes[:causal._CHUNK], "\n  ")))


@pytest.mark.parametrize("data, canonical", EQUIVALENT.values(),
                         ids=EQUIVALENT)
def test_both_readers_give_the_same_dataset(data, canonical):
    raw = written(data)
    expected = general(raw)
    fast = array_read(raw)
    assert (fast is not None) == canonical
    if canonical:
        assert_same(fast, expected)
    assert_same(from_bytes(raw), expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4),
       st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=0, max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_array_reader_matches_json_on_any_finite_floats(levels, k, floats,
                                                        seed):
    data = dataset(len(floats), k=k, levels=levels, columns=("Y",),
                   values=lambda rng, n: np.array(floats, dtype=np.float64),
                   seed=seed)
    raw = written(data)
    fast = array_read(raw)
    assert fast is not None
    assert_same(fast, general(raw))


# rows [[1, 0], [11, 2], [3, 10]] and Y [0.5, -1.25, 3e-05]
BASE = written(DiscreteDataset(
    ["V0", "V1"], {"V0": [f"c{i}" for i in range(12)],
                   "V1": [f"c{i}" for i in range(12)]},
    np.array([[1, 0], [11, 2], [3, 10]]), {"Y": [0.5, -1.25, 3e-05]})).decode()


def dumped(edit, **options):
    """BASE's document, changed in place by ``edit``, as ``json.dumps``
    writes it (``sort_keys`` and ``indent=1`` unless given)."""
    doc = json.loads(BASE)
    edit(doc)
    options = {"sort_keys": True, "indent": 1, **options}
    return json.dumps(doc, **options) + "\n"


def setter(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


def replaced(old, new):
    assert BASE.count(old) == 1
    return BASE.replace(old, new)


MUTATIONS = {
    "compact json.dumps": json.dumps(json.loads(BASE)),
    "sorted compact": dumped(lambda doc: None, indent=None),
    "indent 2": dumped(lambda doc: None, indent=2),
    "reordered keys": json.dumps(
        dict(reversed(list(json.loads(BASE).items()))), indent=1) + "\n",
    "extra top-level key": dumped(setter("extra", 1)),
    "no continuous key": dumped(lambda doc: doc.pop("continuous")),
    "ragged row": dumped(setter("rows", 1, [11])),
    "row with an extra code": dumped(setter("rows", 0, [1, 0, 0])),
    "ragged rows of the right size": dumped(setter("rows", [[1, 0, 11], [2],
                                                            [3, 10]])),
    "shifted indent": replaced("\n   1,\n   0\n", "\n  1,\n    0\n"),
    "leading-zero code": replaced("\n   11,", "\n   011,"),
    "leading-zero last code": replaced("\n   10\n", "\n   010\n"),
    "double zero code": replaced("\n   0\n", "\n   00\n"),
    "digit inside a row close": replaced("\n   10\n  ]", "\n   1\n 0 ]"),
    # json refuses it, and the writer gives no code back as "  1 1,",
    # so the write-back check refuses it too
    "code split by a space": replaced("\n   11,", "\n  1 1,"),
    "code in the indent": replaced("\n   11,", "\n 11  ,"),
    "-1 as a code": replaced("\n   0\n", "\n   -1\n"),
    "code past int64": replaced("\n   3,", "\n   99999999999999999999,"),
    "empty code": replaced("\n   3,", "\n   ,"),
    "+1 as a float": replaced("   0.5,", "   +0.5,"),
    ".5 as a float": replaced("   0.5,", "   .5,"),
    "1. as a float": replaced("   0.5,", "   1.,"),
    "-.5 as a float": replaced("   0.5,", "   -.5,"),
    "leading-zero float": replaced("   0.5,", "   00.5,"),
    "negative leading-zero float": replaced("   -1.25,", "   -01.25,"),
    "integer as a float": replaced("   0.5,", "   5,"),
    "-0 as a float": replaced("   0.5,", "   -0,"),
    "two fractions": replaced("   -1.25,", "   -1.2.5,"),
    "two exponents": replaced("   3e-05\n", "   3e-05e1\n"),
    "fraction after exponent": replaced("   3e-05\n", "   3e-05.5\n"),
    "bare exponent": replaced("   3e-05\n", "   3e\n"),
    "signed bare exponent": replaced("   3e-05\n", "   3e-\n"),
    "exponent without digits before": replaced("   3e-05\n", "   e-05\n"),
    "sign inside a float": replaced("   -1.25,", "   1-1.25,"),
    # valid JSON with the column's numbers, but the writer puts each comma
    # right after its number, so the write-back check refuses these bytes
    "float inside a separator": replaced("\n   -1.25,", "\n -1.25  ,"),
    "NaN among floats": replaced("   0.5,", "   NaN,"),
    "Infinity among floats": replaced("   0.5,", "   Infinity,"),
    "null among codes": dumped(setter("rows", 0, 0, None)),
    "true among codes": dumped(setter("rows", 0, 0, True)),
    "false among codes": dumped(setter("rows", 2, 1, False)),
    "string among codes": dumped(setter("rows", 0, 0, "1")),
    "float among codes": dumped(setter("rows", 0, 0, 1.0)),
    "null among floats": dumped(setter("continuous", "Y", 1, None)),
    "true among floats": dumped(setter("continuous", "Y", 1, True)),
    "string among floats": dumped(setter("continuous", "Y", 1, "0.5")),
    "short column": dumped(setter("continuous", "Y", [0.5, 1.5])),
    "empty column": dumped(setter("continuous", "Y", [])),
    "unsorted columns": dumped(
        setter("continuous", {"Y": [0.5, 1.0, 2.0], "X": [1.5, 2.5, 3.5]}),
        sort_keys=False),
    "duplicate columns": replaced('"Y": [', '"Y": [\n   9.5,\n   8.5,\n'
                                  '   7.5\n  ],\n  "Y": ['),
    "column not an array": dumped(setter("continuous", "Y", 0.5)),
    "unquoted column name": replaced('"Y": [', 'Y: ['),
    "two-space item indent": replaced("   0.5,", "  0.5,"),
    "tab before an item": replaced("   0.5,", "  \t0.5,"),
    "space before a comma": replaced("   0.5,", "   0.5 ,"),
    "CRLF lines": BASE.replace("\n", "\r\n"),
    "UTF-8 BOM": "\ufeff" + BASE,
    "trailing garbage": BASE + "x",
    "trailing object": BASE + "{}",
    "no final newline": BASE[:-1],
    "two final newlines": BASE + "\n",
    "truncated": BASE[:-3],
    "truncated mid-rows": BASE[:BASE.index('"rows"') + 40],
    "truncated mid-column": BASE[:BASE.index("-1.25") + 2],
    "variables not a list": dumped(setter("variables", {"name": "V0"})),
    "variable without categories": dumped(
        lambda doc: doc["variables"][0].pop("categories")),
    # a number section with no items: valid JSON, an empty list
    "empty line as the rows": BASE[:BASE.index('"rows": [') + 9] + "\n\n ]"
    + BASE[BASE.index(',\n "variables"'):],
    "blank item line as a column": BASE[:BASE.index('"Y": [') + 6]
    + "\n   \n  ]" + BASE[BASE.index("\n  ]", BASE.index('"Y": [')) + 4:],
    # json raises RecursionError, not ValueError, on this
    "variables nested too deeply": BASE[:BASE.index('"variables": ') + 13]
    + "[" * 100_000 + "\n}\n",
    "a column name json cannot read": replaced('"Y": [', '"\\A": ['),
    "empty file": "",
    "array file": "[]\n",
}


def outcome(read, raw: bytes):
    try:
        return read(raw)
    except ToolkitError as exc:
        return type(exc), exc.code, str(exc)


def test_base_takes_the_array_reader():
    assert_same(array_read(BASE.encode()),
                general(BASE.encode()))


@pytest.mark.parametrize("text", MUTATIONS.values(), ids=MUTATIONS)
def test_no_mutation_gets_past_the_array_reader(text):
    raw = text.encode()
    assert array_read(raw) is None
    got, expected = (outcome(from_bytes, raw),
                     outcome(general, raw))
    if isinstance(expected, DiscreteDataset):
        assert_same(got, expected)
    else:
        assert got == expected


LONG = written(dataset(30_000, columns=("Y",))).decode()


@pytest.mark.parametrize("row", [0, 4095, 11_915, 20_000, 29_998])
def test_ragged_rows_of_the_right_size_are_refused_anywhere(row):
    # one code moves to the row before it: the file keeps its length and
    # its number of codes; the writer gives back other bytes for those
    # rows, so the write-back check refuses it in whichever block it falls
    doc = json.loads(LONG)
    doc["rows"][row].append(doc["rows"][row + 1].pop(0))
    raw = (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    assert len(raw) == len(LONG)
    assert array_read(LONG.encode()) is not None
    assert array_read(raw) is None
    with pytest.raises(SchemaError, match="equal-length lists"):
        from_bytes(raw)


@pytest.mark.parametrize("old, new", [
    ("   0.5,", "   5e-1,"),
    ("   0.5,", "   5E-1,"),
    ("   0.5,", "   0.5e+0,"),
    ("   0.5,", "   -0.0,"),
    ("   0.5,", "   1e400,"),
    ("   -1.25,", "   -1.250000000000000000001,"),
])
def test_other_json_floats_read_alike(old, new):
    # valid JSON floats that write_report does not write; either reader
    # may take them, and they must read the same
    raw = replaced(old, new).encode()
    assert_same(from_bytes(raw), general(raw))


@pytest.mark.parametrize("token, named", [
    ("true", "integer category codes"), ("false", "integer category codes")])
def test_bool_code_is_e_schema(token, named):
    raw = replaced("\n   3,", f"\n   {token},").encode()
    with pytest.raises(SchemaError, match=named):
        from_bytes(raw)


def test_invalid_utf8_is_e_schema():
    raw = BASE.encode().replace(b'"c11"', b'"c\xff"')
    with pytest.raises(SchemaError, match="invalid JSON"):
        from_bytes(raw)


def test_a_column_name_json_cannot_read_is_e_schema():
    raw = MUTATIONS["a column name json cannot read"].encode()
    with pytest.raises(SchemaError, match=r"^invalid JSON: Invalid \\escape"):
        from_bytes(raw)


def variable(j, **changes):
    """An edit setting the fields ``changes`` of BASE's variable ``j``."""
    def edit(doc):
        doc["variables"][j].update(changes)
    return edit


TWELVE = [f"c{i}" for i in range(12)]
BAD_VARIABLES = {
    "a name given twice": (variable(1, name="V0"),
                           "variable 'V0' listed twice"),
    "categories a string": (variable(1, categories="abcdefghijkl"),
                            "variable 'V1': categories must be a list"),
    "a category given twice": (variable(1, categories=["c0"] * 12),
                               "variable 'V1': duplicate categories"),
    "a bool category": (variable(0, categories=[True, *TWELVE[1:]]),
                        "variable 'V0': categories must be a list"),
    "a float category": (variable(0, categories=[0.5, *TWELVE[1:]]),
                         "variable 'V0': categories must be a list"),
    "a name not a string": (variable(0, name=7),
                            "variable name 7 is not a string"),
    "no categories": (variable(1, categories=[]),
                      "variable 'V1': needs >= 1 category"),
    "an integer and its text": (variable(1, categories=[*range(11), "10"]),
                                "variable 'V1': duplicate categories"),
}


@pytest.mark.parametrize("edit, message", BAD_VARIABLES.values(),
                         ids=BAD_VARIABLES)
def test_variables_are_checked(tmp_path, edit, message):
    # read as given, a second V0 column would never be read, and a
    # string's letters would be taken for its categories
    raw = dumped(edit).encode()
    assert array_read(raw) is None
    (tmp_path / "data.json").write_bytes(raw)
    for read in (from_bytes, general,
                 lambda raw: loaded(tmp_path / "data.json")):
        with pytest.raises(SchemaError, match=message):
            read(raw)


def test_integer_categories_are_read_as_their_text(tmp_path):
    # the writer quotes every label, so such a text takes the general reader
    ints = dumped(variable(0, categories=list(range(12)))).encode()
    texts = dumped(variable(0, categories=[str(i) for i in range(12)]))
    expected = from_bytes(texts.encode())
    assert expected.categories["V0"] == tuple(map(str, range(12)))
    assert array_read(ints) is None
    (tmp_path / "data.json").write_bytes(ints)
    for read in (from_bytes, general,
                 lambda raw: loaded(tmp_path / "data.json")):
        assert_same(read(ints), expected)


THREE = written(dataset(40, levels=3, columns=("Y",), seed=2)).decode()


@pytest.mark.parametrize("code", ["3", "256", "257", "259", "65537", "-1",
                                  "-255"])
def test_code_out_of_range_never_wraps(tmp_path, code):
    # 256 + 1 and 65536 + 1 would wrap to 1 in uint8, a code of V1
    at = THREE.index("\n   2", THREE.index('"rows"'))
    raw = (THREE[:at] + "\n   " + code + THREE[at + 5:]).encode()
    assert array_read(raw) is None
    (tmp_path / "data.json").write_bytes(raw)
    for read in (from_bytes, general,
                 lambda raw: from_path(tmp_path / "data.json")):
        with pytest.raises(SchemaError, match="'V.': code out of range"):
            read(raw)


def test_wide_node_round_trips_in_the_bytes_of_int64_codes():
    data = dataset(500, k=2, levels=300, columns=("Y",), seed=6)
    assert data.codes.dtype == np.uint16 and data.codes.max() >= 256
    raw = written(data)
    as_int64 = {**data.to_document(), "rows": data.codes.astype(np.int64)}
    assert raw == ingest.write_report(as_int64).encode()
    again = array_read(raw)
    assert_same(again, general(raw))
    assert written(again) == raw


@pytest.mark.parametrize("text", [
    *(written(data).decode() for data, _ in EQUIVALENT.values()),
    *MUTATIONS.values()], ids=[*EQUIVALENT, *MUTATIONS])
def test_a_file_reads_as_its_bytes(tmp_path, text):
    raw = text.encode()
    (tmp_path / "data.json").write_bytes(raw)
    got, expected = (outcome(from_path, tmp_path / "data.json"),
                     outcome(from_bytes, raw))
    if isinstance(expected, DiscreteDataset):
        assert_same(got, expected)
    else:
        assert got == expected


@pytest.mark.parametrize("text", [BASE, MUTATIONS["compact json.dumps"],
                                  MUTATIONS["-1 as a code"]],
                         ids=["canonical", "compact", "-1 as a code"])
def test_a_pipe_reads_as_its_bytes(text):
    # a pipe cannot seek (fit --in /dev/stdin); it is read whole first
    raw = text.encode()
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as fh:
        with open(write_end, "wb") as out:
            out.write(raw)  # within the pipe's buffer
        got = outcome(DiscreteDataset.from_file, fh)
    expected = outcome(from_bytes, raw)
    if isinstance(expected, DiscreteDataset):
        assert_same(got, expected)
    else:
        assert got == expected


class Recorded(io.BytesIO):
    """A file that records the size of every read."""

    def __init__(self, raw):
        super().__init__(raw)
        self.sizes = []

    def read(self, size=-1):
        chunk = super().read(size)
        self.sizes.append(len(chunk))
        return chunk


@pytest.mark.parametrize("block", [64, 4096, causal._BLOCK_BYTES])
def test_a_canonical_file_is_read_through_a_window(monkeypatch, block):
    monkeypatch.setattr(causal, "_BLOCK_BYTES", block)
    raw = LONG.encode()
    assert len(raw) > 4 * causal._BLOCK_BYTES
    file = Recorded(raw)
    assert_same(DiscreteDataset.from_file(file), general(raw))
    # the file is never held: a read is a block, or a piece the writer
    # gives to compare, and the file is read at most twice over
    largest = max(map(len, causal.dataset_pieces(general(raw))))
    assert max(file.sizes) <= max(block, largest)
    assert sum(file.sizes) <= 2 * len(raw)


def test_fit_and_report_read_compact_json_alike(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--spec", "paper-shaped", "--n", "2000",
                     "--seed", "7", "--out", "data.json"]) == 0
    raw = (tmp_path / "data.json").read_bytes()
    assert array_read(raw) is not None
    (tmp_path / "compact.json").write_text(json.dumps(json.loads(raw)))
    for name in ("data", "compact"):
        assert cli.main(["fit", "--in", f"{name}.json",
                         "--out", f"cpts_{name}.json"]) == 0
        assert cli.main(["report", "--in", f"fixture={name}.json",
                         "--out", f"report_{name}.json"]) == 0
    assert ((tmp_path / "cpts_data.json").read_bytes()
            == (tmp_path / "cpts_compact.json").read_bytes())
    assert ((tmp_path / "report_data.json").read_bytes()
            == (tmp_path / "report_compact.json").read_bytes())


# --- block boundaries --------------------------------------------------------
#
# The array reader reads a block of whole lines (about ``_BLOCK_BYTES``)
# at a time.  A small block makes a small file span many blocks: 1 byte
# makes every line a block of its own.

BLOCK_SIZES = [1, 7, 64, 4096]


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("data, canonical", EQUIVALENT.values(),
                         ids=EQUIVALENT)
def test_small_blocks_read_the_same_dataset(monkeypatch, block, data,
                                            canonical):
    monkeypatch.setattr(causal, "_BLOCK_BYTES", block)
    raw = written(data)
    expected = general(raw)
    fast = array_read(raw)
    assert (fast is not None) == canonical
    if canonical:
        assert_same(fast, expected)
    assert_same(from_bytes(raw), expected)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("text", MUTATIONS.values(), ids=MUTATIONS)
def test_no_mutation_gets_past_small_blocks(monkeypatch, block, text):
    monkeypatch.setattr(causal, "_BLOCK_BYTES", block)
    test_no_mutation_gets_past_the_array_reader(text)


COLUMN = written(dataset(300, columns=("Y",), seed=3))
COLUMN_BLOCK = 64
NUMBER_SEP = b",\n   "  # between two numbers of a continuous column


def block_ends(raw: bytes, block: int, key: bytes, next_key: bytes
               ) -> list[int]:
    """Where the array reader ends a block inside the section that
    follows the key line ``key``: the last newline of each read of
    ``block`` bytes after ``causal._HEAD``, from the section's start up to
    and including the newline of ``next_key``, the key line after it (a
    block that starts with that key line still reads the section's empty
    piece before it)."""
    start = raw.index(key) + len(key)
    end = raw.index(next_key, start)
    reads = range(len(causal._HEAD), len(raw), block)
    cuts = (raw.rfind(b"\n", at, at + block) for at in reads)
    return [cut for cut in cuts if start < cut <= end]


def blocks_read(monkeypatch, raw: bytes) -> dict:
    """How many blocks of codes and of floats the array reader reads in
    ``raw``."""
    counts = {np.int64: 0, np.float64: 0}
    numbers = causal._numbers

    def counted(text, dtype):
        counts[dtype] += 1
        return numbers(text, dtype)

    monkeypatch.setattr(causal, "_numbers", counted)
    assert array_read(raw) is not None
    monkeypatch.setattr(causal, "_numbers", numbers)
    return counts


def token_around(raw: bytes, sep_at: int, side: str) -> tuple[int, int]:
    """The span of the float token just before or just after the
    separator at ``sep_at``."""
    if side == "before":
        return raw.rindex(b" ", 0, sep_at) + 1, sep_at
    start = sep_at + len(NUMBER_SEP)
    return start, min(raw.index(b",", start), raw.index(b"\n", start))


FLOAT_CUTS = block_ends(COLUMN, COLUMN_BLOCK, b'\n  "Y": ', b'\n "rows": ')
# the blocks that end between two floats, at the separator's newline
FLOAT_ENDS = [cut - 1 for cut in FLOAT_CUTS
              if COLUMN.startswith(NUMBER_SEP, cut - 1)]


@pytest.mark.parametrize("boundary", [0, len(FLOAT_ENDS) // 2, -1],
                         ids=["first", "middle", "last"])
@pytest.mark.parametrize("side", ["before", "after"])
@pytest.mark.parametrize("mutate", [
    lambda token: (b"-0" + token[1:] if token.startswith(b"-")
                   else b"0" + token),
    lambda token: b"-",
    lambda token: b"",
    lambda token: token + b"e1e1",
    lambda token: token + b".5",
], ids=["leading zero", "bare minus", "empty", "second exponent",
        "second fraction"])
def test_float_mutations_at_a_block_boundary_are_refused(
        monkeypatch, boundary, side, mutate):
    monkeypatch.setattr(causal, "_BLOCK_BYTES", COLUMN_BLOCK)
    assert len(FLOAT_ENDS) > 3
    assert (blocks_read(monkeypatch, COLUMN)[np.float64]
            == len(FLOAT_CUTS) + 1)
    assert_same(array_read(COLUMN), general(COLUMN))
    start, end = token_around(COLUMN, FLOAT_ENDS[boundary], side)
    raw = COLUMN[:start] + mutate(COLUMN[start:end]) + COLUMN[end:]
    assert array_read(raw) is None
    assert (outcome(from_bytes, raw)
            == outcome(general, raw))


ROWS = written(dataset(300, levels=12, columns=(), seed=4))
ROW_BLOCK = 64
ROW_CUTS = block_ends(ROWS, ROW_BLOCK, b'\n "rows": ', b'\n "variables": ')
# the blocks that end before the variables' key line
ROW_ENDS = [cut for cut in ROW_CUTS
            if not ROWS.startswith(b'\n "variables": ', cut)]


@pytest.mark.parametrize("boundary", [0, len(ROW_ENDS) // 2, -1],
                         ids=["first", "middle", "last"])
@pytest.mark.parametrize("side", ["before", "after"])
@pytest.mark.parametrize("old, new", [
    (b"\n   ", b"\n   0"),
    (b"\n   ", b"\n   99999999999999999999"),
    (b"\n   ", b"\n   -"),
    (b",\n   ", b"\n   "),
    (b"\n   ", b"\n  1 "),
], ids=["leading zero", "past int64", "minus", "no comma", "split code"])
def test_code_mutations_at_a_block_boundary_are_refused(
        monkeypatch, boundary, side, old, new):
    monkeypatch.setattr(causal, "_BLOCK_BYTES", ROW_BLOCK)
    assert len(ROW_ENDS) > 3
    assert blocks_read(monkeypatch, ROWS)[np.int64] == len(ROW_CUTS) + 1
    assert_same(array_read(ROWS), general(ROWS))
    # the last code before a block's end, or the first code after it
    close = ROW_ENDS[boundary]
    at = (ROWS.rindex(old, 0, close) if side == "before"
          else ROWS.index(old, close))
    raw = ROWS[:at] + new + ROWS[at + len(old):]
    assert array_read(raw) is None
    assert (outcome(from_bytes, raw)
            == outcome(general, raw))


@pytest.mark.parametrize("row", [0, 1, 2, 3])
def test_ragged_rows_across_a_block_boundary_are_refused(monkeypatch, row):
    # a code moves across a row close: the file keeps its length and its
    # number of codes, and the two rows lie in two blocks
    monkeypatch.setattr(causal, "_BLOCK_BYTES", 1)
    doc = json.loads(ROWS)
    doc["rows"][row].append(doc["rows"][row + 1].pop(0))
    raw = (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    assert len(raw) == len(ROWS)
    assert array_read(raw) is None
    with pytest.raises(SchemaError, match="equal-length lists"):
        from_bytes(raw)


# --- one byte changed ---------------------------------------------------------
#
# One byte replaced, inserted or deleted anywhere in the file, by a byte a
# number, a separator, a key or a string could hold, at several block
# sizes: the array reader must give None or the general reader's dataset.

FUZZED = written(DiscreteDataset(
    ["V0", "V1", "V2"], {f"V{j}": [f"c{i}" for i in range(12)]
                         for j in range(3)},
    np.random.default_rng(11).integers(0, 12, size=(30, 3)),
    {"A": np.random.default_rng(12).normal(size=30) * 100,
     "Y": np.concatenate([small_floats(np.random.default_rng(13), 15),
                          large_floats(np.random.default_rng(14), 15)])}))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(FUZZED)), st.sampled_from(["replace", "insert",
                                                     "delete"]),
       st.sampled_from(list(b'0123456789-+.eE ,\n[]\t"\\{}:')),
       st.sampled_from([1, 7, 64, causal._BLOCK_BYTES]))
def test_one_byte_changed_in_a_number_section(at, how, byte, block):
    new = b"" if how == "delete" else bytes([byte])
    raw = FUZZED[:at] + new + FUZZED[at + (how != "insert"):]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(causal, "_BLOCK_BYTES", block)
        fast = array_read(raw)
        got = outcome(from_bytes, raw)
    expected = outcome(general, raw)
    if isinstance(expected, DiscreteDataset):
        assert_same(got, expected)
        if fast is not None:
            assert_same(fast, expected)
    else:
        assert got == expected
        assert fast is None


# --- sidecars ---------------------------------------------------------------


def with_sidecar(directory, data: DiscreteDataset) -> Path:
    """``data`` written as the CLI writes a dataset: its text, then its
    sidecar."""
    path = Path(directory) / "data.json"
    causal.write_dataset(str(path), data)
    return path


def sidecar_of(path) -> Path:
    return cli._hidden(str(path), "arrays")


def sidecar_read(path) -> DiscreteDataset | None:
    """The sidecar reader alone."""
    with open(path, "rb") as text, open(sidecar_of(path), "rb") as sidecar:
        return causal.read_sidecar(sidecar, text)


def loaded(path) -> DiscreteDataset:
    """As ``fit`` and ``report`` load ``path``."""
    return causal.load_dataset(str(path))


@pytest.mark.parametrize("data, canonical", EQUIVALENT.values(),
                         ids=EQUIVALENT)
def test_sidecar_gives_what_the_text_gives(tmp_path, data, canonical):
    path = with_sidecar(tmp_path, data)
    assert path.read_bytes() == written(data)
    # only a column holding Infinity keeps a dataset from its sidecar
    assert sidecar_of(path).exists() == canonical
    expected = from_path(path)
    if canonical:
        assert_same(sidecar_read(path), expected)
    assert_same(loaded(path), expected)


def test_a_dataset_without_a_sidecar_removes_the_old_one(tmp_path):
    path = with_sidecar(tmp_path, dataset(30))
    assert sidecar_of(path).exists()
    assert with_sidecar(tmp_path, dataset(30, values=with_infinity)) == path
    assert not sidecar_of(path).exists()
    assert_same(loaded(path), from_path(path))


NEAR_TIES = st.integers(-10 ** 15, 10 ** 15).map(lambda k: (k + 0.5) / 1e6)
SIDECAR_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    NEAR_TIES,
    NEAR_TIES.map(lambda x: math.nextafter(x, math.inf)),
    st.sampled_from([0.0, -0.0, 1e-4, -1e-4, math.nextafter(1e-4, 0.0),
                     1e9, -1e9, math.nextafter(1e9, 0.0), 5e-7, -5e-7]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 12, 300]), st.integers(1, 4),
       st.lists(SIDECAR_FLOATS, min_size=0, max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_sidecar_matches_the_text_on_any_finite_floats(levels, k, floats,
                                                       seed):
    data = dataset(len(floats), k=k, levels=levels, columns=("Y", "Z"),
                   values=lambda rng, n: np.array(floats, dtype=np.float64),
                   seed=seed)
    with tempfile.TemporaryDirectory() as directory:
        path = with_sidecar(directory, data)
        got = sidecar_read(path)
        assert got is not None
        assert_same(got, from_path(path))


def test_synth_output_loads_from_its_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "data.json"
    assert cli.main(["synth", "--spec", "paper-shaped", "--n", "3000",
                     "--seed", "7", "--out", str(path)]) == 0
    expected = from_path(path)

    def text_read(file):
        raise AssertionError("read the text")

    monkeypatch.setattr(DiscreteDataset, "from_file", text_read)
    assert_same(sidecar_read(path), expected)
    assert_same(loaded(path), expected)


def edited_header(**changes):
    """A sidecar edit: its header with ``changes`` (None drops a key)."""
    def edit(raw: bytes) -> bytes:
        end = raw.index(b"\n}\n") + 3
        header = json.loads(raw[:end])
        for key, value in changes.items():
            if value is None:
                header.pop(key)
            else:
                header[key] = value(header[key]) if callable(value) else value
        return ingest.write_report(header).encode() + raw[end:]
    return edit


def rehashed(edit):
    """A sidecar edit made by ``edit``, with the trailer hashing the
    edited bytes, so only the sidecar's contents can refuse it."""
    def rehash(raw: bytes) -> bytes:
        body = edit(raw)[:-causal._TRAILER_BYTES]
        return body + hashlib.sha256(body).hexdigest().encode() + b"\n"
    return rehash


def code_byte(raw: bytes) -> bytes:
    """The sidecar with its first code set to 255, out of range."""
    at = raw.index(b"\n}\n") + 3
    return raw[:at] + b"\xff" + raw[at + 1:]


def code_changed(raw: bytes) -> bytes:
    """The sidecar with its first code changed within range (12
    categories)."""
    at = raw.index(b"\n}\n") + 3
    return raw[:at] + bytes([(raw[at] + 1) % 12]) + raw[at + 1:]


SIDECAR_EDITS = {
    "empty": lambda raw: b"",
    "truncated in the header": lambda raw: raw[:40],
    "header only": lambda raw: raw[:raw.index(b"\n}\n") + 3],
    "truncated by a byte": lambda raw: raw[:-1],
    "a byte more": lambda raw: raw + b"\0",
    "garbage": lambda raw: bytes(random.Random(3).randbytes(len(raw))),
    "garbage lines": lambda raw: b"x\n" * 100,
    "no header line": lambda raw: b"\n}\n" + raw,
    "header not an object": lambda raw: b"[]\n}\n",
    "header nested too deeply": lambda raw: b"[" * 100_000 + b"\n}\n",
    "header not UTF-8": lambda raw: b"\xff\xfe\n}\n",
    "another version": edited_header(version="0.0.0"),
    "another format": edited_header(format="asrcausal dataset arrays 0"),
    "another text length": edited_header(bytes=lambda n: n + 1),
    "another text hash": edited_header(sha256="0" * 64),
    "a row more": edited_header(rows=lambda n: n + 1),
    "negative rows": edited_header(rows=-1),
    "rows a float": edited_header(rows=lambda n: n + 0.0),
    "int64 codes": edited_header(codes="<i8"),
    "float codes": edited_header(codes="<f8"),
    "big-endian floats": edited_header(floats=">f8"),
    "unsorted columns": edited_header(continuous=["Y", "A"]),
    "a column less": edited_header(continuous=["A"]),
    "variables not a list": edited_header(variables=7),
    "no variables and no payload": lambda raw: edited_header(
        variables=[], continuous=[])(raw[:raw.index(b"\n}\n") + 3]),
    "no variables key": edited_header(variables=None),
    "no sha256 key": edited_header(sha256=None),
    "a variable listed twice": edited_header(
        variables=lambda entries: entries + entries[:1]),
    "code out of range": code_byte,
    "code out of range, trailer rehashed": rehashed(code_byte),
    "a variable with no categories": rehashed(edited_header(
        variables=lambda entries: [{**entries[0], "categories": []},
                                   *entries[1:]])),
    "a code changed within range": code_changed,
}


@pytest.mark.parametrize("edit", SIDECAR_EDITS.values(), ids=SIDECAR_EDITS)
def test_a_broken_sidecar_gives_the_text(tmp_path, edit):
    data = dataset(50, levels=12, columns=("A", "Y"), seed=8)
    path = with_sidecar(tmp_path, data)
    sidecar = sidecar_of(path)
    sidecar.write_bytes(edit(sidecar.read_bytes()))
    assert sidecar_read(path) is None
    assert_same(loaded(path), from_path(path))


def test_a_variable_without_categories_is_refused_with_its_sidecar(tmp_path):
    # the constructor takes it, so the writer gives it a sidecar
    path = with_sidecar(tmp_path, DiscreteDataset(
        ["X", "Y"], {"X": [], "Y": ["a"]}, np.zeros((0, 2), np.int64)))
    assert sidecar_of(path).exists()
    assert sidecar_read(path) is None
    with pytest.raises(SchemaError,
                       match="^variable 'X': needs >= 1 category$"):
        loaded(path)


def one_code_changed(raw: bytes) -> bytes:
    """The text with its first code changed and its length kept."""
    at = raw.index(b'"rows": [\n  [\n   ') + 17
    return raw[:at] + (b"1" if raw[at:at + 1] == b"0" else b"0") + raw[at + 1:]


TEXT_EDITS = {
    "a code changed, same length": one_code_changed,
    "a code out of range, same length": lambda raw: raw.replace(
        b"\n   2,", b"\n   9,", 1),
    "not JSON, same length": lambda raw: raw.replace(b"[", b"(", 1),
    "compact JSON": lambda raw: json.dumps(json.loads(raw)).encode(),
    "truncated": lambda raw: raw[:-10],
    "empty": lambda raw: b"",
}


@pytest.mark.parametrize("edit", TEXT_EDITS.values(), ids=TEXT_EDITS)
def test_a_text_edited_after_writing_is_read_as_text(tmp_path, edit):
    data = dataset(50, levels=3, columns=("Y",), seed=9)
    path = with_sidecar(tmp_path, data)
    raw = edit(path.read_bytes())
    path.write_bytes(raw)
    assert sidecar_read(path) is None
    got, expected = outcome(loaded, path), outcome(from_bytes, raw)
    if isinstance(expected, DiscreteDataset):
        assert_same(got, expected)
    else:
        assert got == expected


def test_a_sidecar_from_another_version_is_ignored(tmp_path, monkeypatch):
    path = with_sidecar(tmp_path, dataset(30))
    assert sidecar_read(path) is not None
    monkeypatch.setattr(causal, "__version__", causal.__version__ + ".1")
    assert sidecar_read(path) is None


def test_a_pipe_is_read_as_text(tmp_path, monkeypatch):
    # a FIFO with a sidecar that matches the bytes sent through it: the
    # loader reads a pipe from its text, never from a sidecar
    written_path = with_sidecar(tmp_path, dataset(30))
    raw = written_path.read_bytes()
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    sidecar_of(fifo).write_bytes(sidecar_of(written_path).read_bytes())
    calls = []
    monkeypatch.setattr(causal, "read_sidecar",
                        lambda *args: calls.append(args))

    def send():
        with open(fifo, "wb") as out:
            out.write(raw)

    sender = threading.Thread(target=send)
    sender.start()
    try:
        got = loaded(fifo)
    finally:
        sender.join()
    assert not calls
    assert_same(got, from_bytes(raw))
