import json
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrcausal import causal, discretize, ingest, synthetic
from asrcausal.errors import (
    CycleError,
    DuplicateIdError,
    EmptyInputError,
    IoError,
    SchemaError,
    SelfLoopError,
    UnknownNodeError,
)


MINIMAL = ('{"id": "u1", "speaker_id": "s", "reference": "the cat", '
           '"hypotheses": {"m": "the cat"}}')


class TestParseUtterances:
    def test_minimal_record(self):
        (rec,) = ingest.parse_utterances([MINIMAL])
        assert rec.id == "u1"
        assert rec.hypotheses == {"m": "the cat"}
        assert rec.gop is None

    def test_missing_reference_is_schema_error_with_line(self):
        lines = [MINIMAL,
                 '{"id": "u2", "speaker_id": "s", "hypotheses": {"m": "x"}}']
        with pytest.raises(SchemaError) as err:
            ingest.parse_utterances(lines)
        assert "line 2" in str(err.value)

    def test_integer_grade_read_as_text(self):
        (record,) = ingest.parse_utterances([MINIMAL[:-1] + ', "grade": 3}'])
        assert record.grade == "3"

    def test_blank_lines_skipped_and_later_lines_keep_their_numbers(self):
        second = MINIMAL.replace('"u1"', '"u2"')
        records = ingest.parse_utterances([MINIMAL, "\n", "  \n", second])
        assert [r.id for r in records] == ["u1", "u2"]
        with pytest.raises(SchemaError) as err:
            ingest.parse_utterances([MINIMAL, "\n", "", "[1]"])
        assert str(err.value) == "line 4: line must be a JSON object"

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError):
            ingest.parse_utterances([MINIMAL, MINIMAL])

    def test_order_preserved(self):
        lines = [MINIMAL.replace("u1", f"u{i}") for i in range(5)]
        records = ingest.parse_utterances(lines)
        assert [r.id for r in records] == [f"u{i}" for i in range(5)]

    def test_positive_gop_rejected(self):
        bad = json.loads(MINIMAL)
        bad["gop"] = 0.5
        with pytest.raises(SchemaError):
            ingest.parse_utterances([json.dumps(bad)])

    @pytest.mark.parametrize("field", ["snr_db", "gop", "vocab_difficulty"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_covariate_rejected(self, field, value):
        bad = json.loads(MINIMAL)
        bad[field] = value
        with pytest.raises(SchemaError) as err:
            ingest.parse_utterances([MINIMAL.replace("u1", "u0"),
                                     json.dumps(bad)])
        assert "line 2" in str(err.value)
        assert repr(field) in str(err.value)

    def test_unknown_field_rejected(self):
        bad = json.loads(MINIMAL)
        bad["mystery"] = 1
        with pytest.raises(SchemaError):
            ingest.parse_utterances([json.dumps(bad)])

    def test_bad_grade_rejected(self):
        bad = json.loads(MINIMAL)
        bad["grade"] = "13"
        with pytest.raises(SchemaError):
            ingest.parse_utterances([json.dumps(bad)])

    def test_empty_hypotheses_rejected(self):
        bad = json.loads(MINIMAL)
        bad["hypotheses"] = {}
        with pytest.raises(SchemaError):
            ingest.parse_utterances([json.dumps(bad)])

    def test_round_trip(self):
        full = json.loads(MINIMAL)
        full.update(grade="K", gender="boy", snr_db=12.25, gop=-1.5,
                    word_count=2, vocab_difficulty=0.875)
        records = ingest.parse_utterances([json.dumps(full)])
        text = "".join(ingest.utterance_lines(records))
        again = ingest.parse_utterances(text.splitlines())
        assert again == records


class TestUnreadableJson:
    """Text ``json`` cannot read, whatever error it raises, is
    SchemaError naming the line."""

    LONG = "9" * 5001

    def test_long_integer_in_a_record_line(self):
        line = MINIMAL[:-1] + f', "snr_db": {self.LONG}}}'
        with pytest.raises(SchemaError, match="^line 2: an integer has "
                                              "more than 4300 digits"):
            ingest.parse_utterances([MINIMAL, line])

    def test_deep_nesting_in_a_record_line(self):
        with pytest.raises(SchemaError, match="^line 1: JSON nested"):
            ingest.parse_utterances(["[" * 100_000])

    @pytest.mark.parametrize("parse", [
        ingest.load_json,
        lambda text: ingest.CausalGraph.from_document(ingest.load_json(text)),
        discretize.parse_schemes, synthetic.parse_scm_spec,
    ], ids=["report", "graph-spec", "schemes", "scm-spec"])
    def test_long_integer_in_a_document_names_its_line(self, parse):
        text = '{\n "a": 1,\n "b": [1, %s]\n}\n' % self.LONG
        with pytest.raises(SchemaError, match="^line 3: an integer"):
            parse(text)


class TestFrequencyTable:
    def test_direct_sum(self):
        table = ingest.parse_frequency_table("word,count\nthe,50\ncat,10\n")
        assert table.total_tokens == 60
        assert table.vocab_size == 2

    def test_pooling_duplicates(self):
        table = ingest.parse_frequency_table("the,30\nthe,20\n")
        assert table.counts == {"the": 50}
        assert table.total_tokens == 50
        assert table.vocab_size == 1

    def test_negative_count(self):
        with pytest.raises(SchemaError):
            ingest.parse_frequency_table("cat,-1\n")

    def test_non_integer_count(self):
        with pytest.raises(SchemaError):
            ingest.parse_frequency_table("cat,many\n")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            ingest.parse_frequency_table("word,count\n")

    def test_merge_pools_by_summation(self):
        a = ingest.parse_frequency_table("the,30\ncat,5\n")
        b = ingest.parse_frequency_table("the,20\ndog,7\n")
        merged = ingest.merge_frequency_tables([a, b])
        assert merged.counts == {"the": 50, "cat": 5, "dog": 7}
        flipped = ingest.merge_frequency_tables([b, a])
        assert flipped == merged

    def test_round_trip(self):
        table = ingest.parse_frequency_table("word,count\nthe,50\ncat,10\n")
        assert ingest.parse_frequency_table(
            "word,count\ncat,10\nthe,50\n") == table


class TestGraphSpec:
    def test_builtin_paper_default_shape(self):
        graph = ingest.CausalGraph.builtin("paper-default")
        assert len(graph.nodes) == 9
        assert len(graph.edges) == 20

    def test_builtin_fig3e_drops_vocab_error_edges(self):
        graph = ingest.CausalGraph.builtin("fig3e")
        assert len(graph.nodes) == 9
        assert len(graph.edges) == 17
        assert ("VocabDiff", "GoP") in graph.edges
        assert ("VocabDiff", "SubsErr") not in graph.edges

    def test_two_cycle(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous", "categories": ["0"]},
                         {"name": "B", "kind": "endogenous", "categories": ["0"]}],
               "edges": [["A", "B"], ["B", "A"]]}
        with pytest.raises(CycleError):
            ingest.CausalGraph.from_document(doc)

    def test_unknown_node(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous", "categories": ["0"]}],
               "edges": [["A", "C"]]}
        with pytest.raises(UnknownNodeError):
            ingest.CausalGraph.from_document(doc)

    def test_self_loop(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous", "categories": ["0"]}],
               "edges": [["A", "A"]]}
        with pytest.raises(SelfLoopError):
            ingest.CausalGraph.from_document(doc)

    def test_duplicate_edge(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous", "categories": ["0"]},
                         {"name": "B", "kind": "endogenous", "categories": ["0"]}],
               "edges": [["A", "B"], ["A", "B"]]}
        with pytest.raises(SchemaError):
            ingest.CausalGraph.from_document(doc)

    def test_integer_categories_read_as_decimal_text(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous",
                          "categories": [0, 10, "x"]}], "edges": []}
        graph = ingest.CausalGraph.from_document(doc)
        assert graph.categories["A"] == ("0", "10", "x")

    @pytest.mark.parametrize("category", [["x"], {"y": 1}, None, True, 1.0],
                             ids=["list", "object", "null", "bool", "float"])
    def test_other_categories_rejected_naming_the_node(self, category):
        doc = {"nodes": [{"name": "A", "kind": "exogenous",
                          "categories": ["x", category]}], "edges": []}
        with pytest.raises(SchemaError) as err:
            ingest.CausalGraph.from_document(doc)
        assert "'A'" in str(err.value)

    def test_round_trip(self):
        graph = ingest.CausalGraph.builtin("paper-default")
        text = ingest.write_report(graph.to_document())
        again = ingest.CausalGraph.from_document(ingest.load_json(text))
        assert again.to_document() == graph.to_document()
        assert ingest.write_report(again.to_document()) == text

    def test_topological_order_deterministic(self):
        graph = ingest.CausalGraph.builtin("paper-default")
        order = graph.topo_order
        assert order == sorted(order, key=order.index)
        assert order.index("GoP") > order.index("Age")
        assert order.index("SubsErr") > order.index("GoP")
        nodes = [(n, graph.kinds[n], graph.categories[n]) for n in graph.nodes]
        again = ingest.CausalGraph(nodes, graph.edges[::-1]).topo_order
        assert again == order


class TestReadLabels:
    """One rule reads every declared list of labels: graph nodes, dataset
    variables and phone inventories."""

    def test_integers_read_as_their_text_in_order(self):
        read = ingest.read_labels([("B", [0, 10, "x"]), ("A", ("y",))], "node")
        assert read == {"B": ("0", "10", "x"), "A": ("y",)}
        assert list(read) == ["B", "A"]

    @pytest.mark.parametrize("pairs, message", [
        ([(7, ["x"])], "node name 7 is not a string"),
        ([("A", ["x"]), ("A", ["y"])], "node 'A' listed twice"),
        ([("A", "xy")],
         "node 'A': categories must be a list of strings or integers"),
        ([("A", [True])],
         "node 'A': categories must be a list of strings or integers"),
        ([("A", [1.0])],
         "node 'A': categories must be a list of strings or integers"),
        ([("A", [])], "node 'A': needs >= 1 category"),
        ([("A", ["x", "x"])], "node 'A': duplicate categories"),
        ([("A", [1, "1"])], "node 'A': duplicate categories"),
    ], ids=["int-name", "name-twice", "string", "bool", "float", "empty",
            "label-twice", "integer-and-its-text"])
    def test_refusals(self, pairs, message):
        with pytest.raises(SchemaError) as err:
            ingest.read_labels(pairs, "node")
        assert str(err.value) == message

    def test_nouns_word_the_messages(self):
        with pytest.raises(SchemaError) as err:
            ingest.read_labels([("p", [])], "phone", ("state", "states"))
        assert str(err.value) == "phone 'p': needs >= 1 state"


class TestWriteReport:
    def test_deterministic(self):
        report = {"b": [1, 2.5], "a": {"x": 1 / 3}}
        assert ingest.write_report(report) == ingest.write_report(report)

    def test_sorted_keys_and_quantized_reals(self):
        text = ingest.write_report({"b": 1.23456789, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert "1.234568" in text

    def test_empty_report(self):
        assert json.loads(ingest.write_report({})) == {}

    def test_round_trip_on_quantized_values(self):
        report = {"wer": 12.345678, "counts": [1, 2, 3],
                  "nested": {"k": "v", "rate": 0.5}}
        assert ingest.load_json(ingest.write_report(report)) == report

    def test_nan_becomes_null(self):
        parsed = ingest.load_json(ingest.write_report({"r": float("nan")}))
        assert parsed == {"r": None}


def ref_quantize(obj, places: int = 6):
    """The tree quantizer ``write_report`` used before its single-pass
    encoder; with ``json.dumps`` it is the reference for the bytes.

    ``np.float64.__round__`` overflows to inf (and warns) near the float
    maximum; the value itself is kept there, as Python's ``round`` keeps
    it."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return obj
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            q = round(obj, places)
        if math.isinf(q):
            return obj
        return 0.0 if q == 0 else q
    if isinstance(obj, dict):
        return {str(k): ref_quantize(v, places) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_quantize(v, places) for v in obj]
    return obj


def reference_report(report) -> str:
    return json.dumps(ref_quantize(report), sort_keys=True, indent=1) + "\n"


_REALS = st.one_of(
    st.floats(),
    st.floats(min_value=-2e-6, max_value=2e-6),
    st.sampled_from([0.0, -0.0, -1e-9, 5e-7, -5e-7, 4.9999995e-7, 0.1 + 0.2,
                     1e16, -1e300, 1.7976931348623157e308, math.inf,
                     -math.inf, math.nan]),
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), _REALS,
    _REALS.map(np.float64),
    st.lists(st.integers()), st.lists(_FINITE), st.lists(_REALS),
    st.integers(0, 3).flatmap(lambda k: st.lists(
        st.lists(st.integers(), min_size=k, max_size=k))),
)
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
                  st.none(), st.sampled_from([1.5, -0.0, "1", "None"]))
_TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_KEYS, children, max_size=4),
), max_leaves=20)


class TestReportEncoder:
    """``write_report`` against ``json.dumps(ref_quantize(x), ...)``."""

    @settings(max_examples=400, deadline=None)
    @given(_TREES)
    def test_bytes_match_reference(self, report):
        assert ingest.write_report(report) == reference_report(report)

    @pytest.mark.parametrize("report", [
        {1: "int key", "1": "later str key wins"},
        {"1": "str key", 1: "later int key wins"},
        OrderedDict([("b", [1, 2]), ("a", (3.25, -0.0))]),
        type("Rows", (list,), {})([[1, 2], [3, 4]]),
        [[1, 2], [3, True]],
        [[1, 2], [3]],
        [[], []],
        [1e308, 1e308],
        [np.float64(1.0000005), 2.0],
        [float(x) for x in np.linspace(-1e-6, 1e-6, 41)],
        {"s": "caf\u00e9 \"q\" \\ \n \U0001f600"},
    ])
    def test_edge_cases_match_reference(self, report):
        assert ingest.write_report(report) == reference_report(report)

    @pytest.mark.parametrize("value", [1.7976931348623157e308, -1.7e308])
    def test_float64_near_the_maximum_stays_finite(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = ingest.write_report([np.float64(value)])
        assert text == ingest.write_report([value])
        assert "Infinity" not in text

    @pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, object(),
                                     10 ** 5000],
                             ids=["np.int64", "set", "object", "5001-digit"])
    def test_rejected_types_raise_io_error(self, bad):
        with pytest.raises((TypeError, ValueError)):
            reference_report({"a": [1, bad]})
        with pytest.raises(IoError, match="report not serializable"):
            ingest.write_report({"a": [1, bad]})


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0])


def _near_ties(k):
    """A 6th-decimal tie (k + 1/2) / 10^6 and its two float neighbours."""
    tie = (k + 0.5) / 1e6
    return st.sampled_from([tie, math.nextafter(tie, -math.inf),
                            math.nextafter(tie, math.inf)])


_BAND_EDGE_FLOATS = st.one_of(
    _signed(st.floats(min_value=0.9e-4, max_value=1.1e-4)),
    _signed(st.floats(min_value=0.9e9, max_value=1.1e9)),
    st.integers(-10 ** 15, 10 ** 15).flatmap(_near_ties),
    st.floats(min_value=-5e-7, max_value=-0.0),
    _signed(st.floats(min_value=0.0, max_value=2.2250738585072014e-308)),
    _signed(st.floats(min_value=1e307, allow_infinity=False)),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestBulkListEncoding:
    """Every list item, floats and int rows alike, is quantized one at a
    time and written by ``json.dumps``; long lists must match
    ``json.dumps(ref_quantize(x), ...)`` byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_BAND_EDGE_FLOATS, min_size=1, max_size=30))
    def test_float_lists_match_reference(self, values):
        for report in (values, {"c": {"x": values}}):
            assert ingest.write_report(report) == reference_report(report)

    def test_long_float_lists_across_chunks(self):
        rng = np.random.default_rng(12)
        n = 3 * causal._CHUNK + 5
        spread = (10.0 ** rng.uniform(-12, 10, n)
                  * rng.choice([-1.0, 1.0], n)).tolist()
        whole = [float(i) for i in range(n)]  # every item ends in ".0"
        for values in (spread, whole):
            assert ingest.write_report(values) == reference_report(values)

    @pytest.mark.parametrize("rows", [
        [[-1, 23, 0], [456, -7890, 12]],
        [[10 ** 20, -(10 ** 19)], [0, -1]],
        [[7]],
        [[i, -i, i * 10 ** 6] for i in range(-5000, 5000)],
        tuple([i % 11, -(i % 3)] for i in range(2 * 4096 + 1)),
    ], ids=["negative", "multi-digit", "one-cell", "chunks", "tuple"])
    def test_int_rows_match_reference(self, rows):
        for report in (rows, {"rows": rows}):
            assert ingest.write_report(report) == reference_report(report)


def listed(array, ind: str = "\n ") -> str:
    """The JSON list of ``causal.array_text(array, ind)``: for ``ind`` of
    one space, ``json.dumps``' text of the quantized ``tolist()``."""
    return ("[" + ind + causal.array_text(array, ind).decode()
            + ind[:-1] + "]")


class TestFloatReadBack:
    """``causal.float_read_back`` gives, bit for bit, the floats that
    the text the dataset writer writes for a float array reads back
    as."""

    @staticmethod
    def check(array):
        got = causal.float_read_back(array)
        expected = np.array(json.loads(listed(array)), dtype=np.float64)
        assert got.dtype == np.float64
        # bit for bit, so -0.0 and 0.0 differ
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_BAND_EDGE_FLOATS, min_size=1, max_size=30))
    def test_reads_back_as_the_text(self, values):
        self.check(np.array(values, dtype=np.float64))

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 1e-4, -1e-4, math.nextafter(1e-4, 0.0), 1e9, -1e9,
         math.nextafter(1e9, 0.0), 5e-7, -5e-7, 2.5e-6, 0.5, -1.25],
        np.float32([0.1, -3.3, 1e-5, 7e8]),
    ], ids=["band edges", "float32"])
    def test_edge_cases(self, values):
        self.check(np.asarray(values))

    def test_long_array(self):
        rng = np.random.default_rng(21)
        n = 3 * causal._CHUNK + 5
        self.check(10.0 ** rng.uniform(-12, 12, n)
                   * rng.choice([-1.0, 1.0], n))


_LENGTHS = [0, 1, 4095, 4096, 4097, 2 * 4096 + 1]


class TestArrayEncoding:
    """A NumPy array in a report is written as its ``tolist()`` would
    be."""

    @staticmethod
    def check(report, as_lists):
        assert ingest.write_report(report) == reference_report(as_lists)

    @pytest.mark.parametrize("n", _LENGTHS)
    def test_dataset_arrays_by_length(self, n):
        rng = np.random.default_rng(n)
        codes = rng.integers(-3, 11, size=(n, 9))
        values = rng.normal(0.0, 30.0, size=n)
        self.check({"rows": codes, "continuous": {"x": values}},
                   {"rows": codes.tolist(),
                    "continuous": {"x": values.tolist()}})
        self.check(codes, codes.tolist())
        self.check(values, values.tolist())

    def test_float_array_with_special_values(self):
        ties = [(k + 0.5) / 1e6 for k in (0, 1, 12345, -7, 10 ** 9)]
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-7, -5e-7,
                   1e-5, 9.99e-5, 1e9, -2.5e12, 1.7976931348623157e308,
                   5e-324, 0.1 + 0.2]
        for values in (special, ties, [math.nextafter(t, math.inf)
                                       for t in ties]):
            array = np.array(values * 1500)  # spans three slices
            self.check(array, array.tolist())
            self.check({"c": array}, {"c": array.tolist()})

    def test_bool_array_is_written_as_booleans(self):
        flags = np.array([True, False, True])
        self.check({"flags": flags}, {"flags": [True, False, True]})
        assert "true" in ingest.write_report(flags)
        grid = np.array([[True, False], [False, True]])
        self.check(grid, grid.tolist())

    @pytest.mark.parametrize("shape", [(0, 9), (0, 0), (3, 0)])
    def test_empty_code_arrays(self, shape):
        codes = np.zeros(shape, dtype=np.int64)
        self.check({"rows": codes}, {"rows": codes.tolist()})

    def test_other_dtypes(self):
        for array in (np.arange(5, dtype=np.uint64).reshape(5, 1) + 2 ** 63,
                      np.arange(6, dtype=np.int8).reshape(2, 3),
                      np.linspace(0, 1, 7, dtype=np.float32),
                      np.arange(8).reshape(2, 2, 2)):
            self.check(array, array.tolist())

    def test_unserializable_array_raises_io_error(self):
        with pytest.raises(IoError, match="report not serializable"):
            ingest.write_report({"z": np.array([1j, 2j])})


def _tie_neighbours(ms):
    """Each 6th-decimal tie (m + 1/2) / 10^6 and its two float
    neighbours."""
    ties = [(m + 0.5) / 1e6 for m in ms]
    return ties + [math.nextafter(t, d) for t in ties
                   for d in (-math.inf, math.inf)]


_HARD_FLOATS = {
    "exact-ties": [j / 128 for j in range(-300, 301)]
                  + [12345 + j / 128 for j in range(128)],
    "tie-neighbours": _tie_neighbours(
        [0, 99, 100, 12345, 999999, 10 ** 6, 123456789, 10 ** 12,
         10 ** 14, 10 ** 15 - 1]),
    "band-edges": [1e-4, -1e-4, math.nextafter(1e-4, 0), 999999999.9999996,
                   math.nextafter(1e9, 0), -math.nextafter(1e9, 0), 1e9,
                   -1e9, math.nextafter(1e9, math.inf)],
    "below-band": [float(v) for v in np.linspace(5e-7, 1e-4, 200,
                                                 endpoint=False)]
                  + [-5e-7, 4.9999995e-7, 1e-5, -9.99e-5],
    "specials": [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1e-310, math.nan, math.inf, -math.inf, 1e16, -2.5e12,
                 1.7976931348623157e308],
}


def dataset_text(array) -> tuple[bytes, bytes]:
    """A dataset holding ``array``, a float column or non-negative code
    rows, written by ``causal.dataset_pieces`` and by ``write_report``."""
    if array.ndim == 1:
        data = causal.DiscreteDataset(
            ["V"], {"V": ["a"]}, np.zeros((len(array), 1), np.int64),
            {"x": array})
    else:
        names = [f"V{j}" for j in range(array.shape[1])]
        levels = [str(i) for i in range(int(array.max(initial=0)) + 1)]
        data = causal.DiscreteDataset(names, dict.fromkeys(names, levels),
                                      array)
    return (b"".join(causal.dataset_pieces(data)),
            ingest.write_report(data.to_document()).encode())


class TestArrayFormatter:
    """The dataset writer formats 1-D float and 2-D integer array slices
    with NumPy (``causal.array_text``); the text must be ``json.dumps``
    of their ``tolist()``, whichever items take the per-item path, and
    ``write_report`` must write the same."""

    @staticmethod
    def check(array):
        for report, as_lists in ((array, array.tolist()),
                                 ({"c": {"x": array}},
                                  {"c": {"x": array.tolist()}})):
            assert ingest.write_report(report) == reference_report(as_lists)
        if len(array):
            expected = reference_report(array.tolist())[:-1]
            assert listed(array) == expected
            ind = "\n   "
            assert listed(array, ind) == expected.replace("\n", ind[:-1])
        if array.ndim == 1 or array.min(initial=0) >= 0:
            fast, reference = dataset_text(array)
            assert fast == reference

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(_HARD_FLOATS))
    def test_hard_floats(self, case, dtype):
        values = _HARD_FLOATS[case]
        with np.errstate(over="ignore"):  # float32 takes 1e308 as inf
            arrays = (np.array(values, dtype=dtype),
                      np.array(values + [2.5, -1.0], dtype=dtype)[::-1])
        for array in arrays:
            self.check(array)

    @pytest.mark.parametrize("n", [4095, 4096, 4097])
    def test_chunk_boundaries(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(0.0, 30.0, n)
        self.check(values)
        # items for the per-item path at the ends of the first chunk
        for at in (0, n - 1, min(n - 1, 4095), min(n - 1, 4096)):
            values[at] = math.nan
        values[n // 2] = 5e-7
        self.check(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=60),
           st.lists(st.floats(width=32, allow_nan=False,
                              allow_infinity=False),
                    min_size=1, max_size=60))
    def test_finite_floats(self, doubles, singles):
        self.check(np.array(doubles))
        self.check(np.array(singles, dtype=np.float32))

    def test_near_ties_and_out_of_band_items_take_the_per_item_path(
            self, monkeypatch):
        tie = 123.4567895  # within an ulp of a 6th-decimal tie
        slow = [tie, 5e-5, math.nan, 1e9, -1e-300]
        array = np.array([0.25, *slow, 3.5, -12.125])
        quantized = []

        def spy(value):
            quantized.append(value)
            return ref_quantize(value)

        monkeypatch.setattr(ingest, "_quantize", spy)
        text = listed(array)
        assert text == reference_report(array.tolist())[:-1]
        assert len(quantized) == len(slow)
        assert quantized[0] == tie and quantized[-1] == -1e-300

    def test_exact_zeros_take_the_bulk_path(self, monkeypatch):
        rng = np.random.default_rng(16)
        pool = np.array([0.0, -0.0, math.nan, 0.5, -3.25, 1e-4, -7.0e8,
                         123.456789, 5e-5])
        array = rng.choice(pool, size=3 * 4096 + 5)
        expected = [json.dumps(ref_quantize(x)) for x in array.tolist()]
        quantized = []

        def spy(value):
            quantized.append(value)
            return ref_quantize(value)

        monkeypatch.setattr(ingest, "_quantize", spy)
        pieces = causal.array_text(array, "\n").decode().split(",\n")
        assert pieces == expected
        assert "-0.0" not in pieces
        # only NaN and 5e-5 (below the band) are written one at a time
        assert not [x for x in quantized if x == 0.0]
        assert len(quantized) == int(np.sum(np.isnan(array)
                                            | (array == 5e-5)))

    @pytest.mark.parametrize("rows", [
        np.array([[0, 9, 10], [99, 100, 999]]),
        np.array([[1000, 0], [3, 4]]),
        np.array([[-1, 0], [3, 4]]),
        np.array([[7, 255], [0, 12]], dtype=np.uint8),
        np.array([[7, -3], [0, 123456]], dtype=np.int32),
        np.array([[5], [0], [999]]),
        np.zeros((0, 4), dtype=np.int64),
        np.array([[1, 2, 3]]),
    ], ids=["in-range", "code-1000", "negative", "uint8", "int32",
            "one-column", "no-rows", "one-row"])
    def test_int_rows(self, rows):
        self.check(rows)

    def test_int_rows_out_of_range_in_one_chunk_only(self):
        rows = np.arange(2 * 4096 + 3).reshape(-1, 1) % 1000
        rows[5000] = 1000
        self.check(rows)


class TestEmitPlotData:
    def test_correlation_matrix_file(self):
        report = {"correlation": {
            "models": ["a", "b", "c", "d"],
            "matrix": [[1.0, 0.5, 0.5, 0.5],
                       [0.5, 1.0, 0.5, 0.5],
                       [0.5, 0.5, 1.0, 0.5],
                       [0.5, 0.5, 0.5, 1.0]]}}
        out = ingest.emit_plot_data(report)
        lines = out["correlation.csv"].splitlines()
        assert lines[0] == "model,a,b,c,d"
        assert len(lines) == 5

    def test_empty_model_list(self):
        out = ingest.emit_plot_data({"correlation": {"models": [],
                                                     "matrix": []}})
        assert out["correlation.csv"] == "model\n"

    def test_nan_cell_rendered_empty(self):
        report = {"correlation": {"models": ["a", "b"],
                                  "matrix": [[1.0, float("nan")],
                                             [float("nan"), 1.0]]}}
        lines = ingest.emit_plot_data(report)["correlation.csv"].splitlines()
        assert lines[1] == "a,1.000000,"

    def test_grade_rows_in_canonical_order(self):
        aggs = [{"key": g, "wer": 1.0, "subs_rate": 0.5, "del_rate": 0.25,
                 "ins_rate": 0.25} for g in ingest.GRADES]
        out = ingest.emit_plot_data({"grade_errors": {"m": list(reversed(aggs))}})
        lines = out["grade_errors_m.csv"].splitlines()
        assert len(lines) == 12
        assert [ln.split(",")[0] for ln in lines[1:]] == list(ingest.GRADES)


# --- refusals ---------------------------------------------------------------

RECORD = {"id": "u1", "speaker_id": "s", "reference": "hi",
          "hypotheses": {"m": "hi"}}
NODE_A = ("A", "exogenous", ("x", "y"))


def record_line(**edit) -> list[str]:
    return [json.dumps({**RECORD, **edit}) + "\n"]


@pytest.mark.parametrize("call, error, message", [
    (lambda: ingest.parse_utterances(record_line(id=5)), SchemaError,
     "line 1: field 'id' must be a non-empty string"),
    (lambda: ingest.parse_utterances(record_line(speaker_id=5)), SchemaError,
     "line 1: field 'speaker_id' must be a string"),
    (lambda: ingest.parse_utterances(record_line(reference=["hi"])),
     SchemaError, "line 1: field 'reference' must be a string"),
    (lambda: ingest.parse_utterances(record_line(hypotheses={"": "hi"})),
     SchemaError, "line 1: hypothesis model names must be non-empty"),
    (lambda: ingest.parse_utterances(record_line(hypotheses={"m": 5})),
     SchemaError, "line 1: hypothesis for model 'm' must be a string"),
    (lambda: ingest.parse_utterances(record_line(gender="other")),
     SchemaError, "line 1: field 'gender' must be one of ('boy', 'girl')"),
    (lambda: ingest.parse_utterances(record_line(vocab_difficulty=-0.5)),
     SchemaError, "line 1: field 'vocab_difficulty' must be >= 0"),
    (lambda: ingest.UtteranceRecord.from_dict([RECORD], line=3), SchemaError,
     "line 3: record must be a JSON object"),
    (lambda: ingest.parse_frequency_table("word,count\nthe 5\n"), SchemaError,
     "line 2: expected 'word,count'"),
    (lambda: ingest.parse_frequency_table("word,count\n,5\n"), SchemaError,
     "line 2: expected 'word,count'"),
    (lambda: ingest.parse_frequency_table("word,count\n\n"), EmptyInputError,
     "frequency table has no rows"),
    (lambda: ingest.merge_frequency_tables([]), EmptyInputError,
     "no frequency tables to merge"),
    (lambda: ingest.CausalGraph([NODE_A, NODE_A], []), SchemaError,
     "node 'A' listed twice"),
    (lambda: ingest.CausalGraph([("A", "latent", ("x",))], []), SchemaError,
     "node 'A': kind must be one of ('exogenous', 'endogenous')"),
    (lambda: ingest.CausalGraph([("A", "exogenous", ())], []), SchemaError,
     "node 'A': needs >= 1 category"),
    (lambda: ingest.CausalGraph([("A", "exogenous", ("x", "x"))], []),
     SchemaError, "node 'A': duplicate categories"),
    (lambda: ingest.CausalGraph.builtin("paper"), UnknownNodeError,
     "no builtin graph named 'paper'"),
    (lambda: ingest.CausalGraph.from_document(
        {"nodes": [{"name": "A", "kind": "exogenous"}], "edges": []}),
     SchemaError, "node 0: needs name, kind, categories"),
    (lambda: ingest.CausalGraph.from_document({"nodes": [5], "edges": []}),
     SchemaError, "node 0: needs name, kind, categories"),
], ids=["int-id", "int-speaker", "list-reference", "empty-model-name",
        "int-hypothesis", "unknown-gender", "negative-vocab-difficulty",
        "non-object-record", "freq-no-comma", "freq-empty-word",
        "freq-header-only", "merge-no-tables", "graph-duplicate-names",
        "graph-unknown-kind", "graph-no-categories",
        "graph-duplicate-categories", "graph-unknown-builtin",
        "graph-node-without-categories", "graph-non-object-node"])
def test_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
