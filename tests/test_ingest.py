import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrcausal import ingest
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
        text = ingest.write_utterances(records)
        again = ingest.parse_utterances(text.splitlines())
        assert again == records


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
            ingest.write_frequency_table(table)) == table


class TestGraphSpec:
    def test_builtin_paper_default_shape(self):
        spec = ingest.builtin_graph_spec("paper-default")
        assert len(spec.nodes) == 9
        assert len(spec.edges) == 20

    def test_builtin_fig3e_drops_vocab_error_edges(self):
        spec = ingest.builtin_graph_spec("fig3e")
        assert len(spec.nodes) == 9
        assert len(spec.edges) == 17
        assert ("VocabDiff", "GoP") in spec.edges
        assert ("VocabDiff", "SubsErr") not in spec.edges

    def test_two_cycle(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous", "categories": ["0"]},
                         {"name": "B", "kind": "endogenous", "categories": ["0"]}],
               "edges": [["A", "B"], ["B", "A"]]}
        with pytest.raises(CycleError):
            ingest.parse_graph_spec(json.dumps(doc))

    def test_unknown_node(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous", "categories": ["0"]}],
               "edges": [["A", "C"]]}
        with pytest.raises(UnknownNodeError):
            ingest.parse_graph_spec(json.dumps(doc))

    def test_self_loop(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous", "categories": ["0"]}],
               "edges": [["A", "A"]]}
        with pytest.raises(SelfLoopError):
            ingest.parse_graph_spec(json.dumps(doc))

    def test_duplicate_edge(self):
        doc = {"nodes": [{"name": "A", "kind": "exogenous", "categories": ["0"]},
                         {"name": "B", "kind": "endogenous", "categories": ["0"]}],
               "edges": [["A", "B"], ["A", "B"]]}
        with pytest.raises(SchemaError):
            ingest.parse_graph_spec(json.dumps(doc))

    def test_round_trip(self):
        spec = ingest.builtin_graph_spec("paper-default")
        assert ingest.parse_graph_spec(ingest.write_graph_spec(spec)) == spec

    def test_topological_order_deterministic(self):
        spec = ingest.builtin_graph_spec("paper-default")
        order = ingest.topological_order(spec.node_names(), spec.edges)
        assert order == sorted(order, key=order.index)
        assert order.index("GoP") > order.index("Age")
        assert order.index("SubsErr") > order.index("GoP")
        again = ingest.topological_order(spec.node_names(), spec.edges)
        assert again == order


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
        assert ingest.parse_report(ingest.write_report(report)) == report

    def test_nan_becomes_null(self):
        parsed = ingest.parse_report(ingest.write_report({"r": float("nan")}))
        assert parsed == {"r": None}

    def test_delimited_export(self):
        text = ingest.write_report({"a": {"b": 1.5}, "c": [2, 3]},
                                   fmt="delimited")
        lines = text.splitlines()
        assert lines[0] == "path,value"
        assert "a.b,1.5" in lines
        assert "c.0,2" in lines


def ref_quantize(obj, places: int = 6):
    """The tree quantizer ``write_report`` used before its single-pass
    encoder; with ``json.dumps`` it is the reference for the bytes."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return obj
        q = round(obj, places)
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestReportEncoder:
    """``write_report`` against ``json.dumps(ref_quantize(x), ...)``.

    ``np.float64.__round__`` overflows to inf near the float maximum and
    warns; both sides do the same.
    """

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

    @pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, object(),
                                     10 ** 5000],
                             ids=["np.int64", "set", "object", "5001-digit"])
    def test_rejected_types_raise_io_error(self, bad):
        with pytest.raises((TypeError, ValueError)):
            reference_report({"a": [1, bad]})
        with pytest.raises(IoError, match="report not serializable"):
            ingest.write_report({"a": [1, bad]})


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
