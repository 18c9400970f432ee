import json
import math

import numpy as np
import pytest

from asrcausal import causal, cli, ingest, synthetic
from asrcausal.causal import (
    CausalGraph,
    DiscreteDataset,
    ace,
    conditional_mutual_information,
    edge_report,
    entropy,
    fit_cpts,
)
from asrcausal.errors import (
    EmptyStratumError,
    MissingVariableError,
    NotNormalizedError,
    SchemaError,
    StateExplosionError,
    UnknownLevelError,
    UnknownNodeError,
)

from support import (
    backdoor_ace,
    conditional_entropy,
    dataset_from_rows,
    enumerate_assignments,
    joint_probability,
    mutual_information,
    probability,
    smoothed_joint,
)


def graph_of(nodes, edges):
    return CausalGraph(nodes, edges)


def binary_chain():
    return graph_of([("X", "exogenous", ["0", "1"]),
                     ("Y", "endogenous", ["0", "1"])],
                    [("X", "Y")])


def dataset_xy(pairs):
    rows = [{"X": x, "Y": y} for x, y in pairs]
    return dataset_from_rows({"X": ["0", "1"], "Y": ["0", "1"]}, rows)


class TestCausalGraph:
    def test_parents_children_topo(self):
        graph = CausalGraph.builtin("paper-default")
        assert graph.parents("GoP") == ["Age", "VocabDiff"]
        assert set(graph.children("Age")) == {"SubsErr", "DelErr", "InsErr",
                                              "GoP"}
        order = graph.topo_order
        assert order.index("GoP") > order.index("VocabDiff")
        assert graph.state_space() == 11 * 2 * 3 ** 7

    def test_parent_order_follows_declaration(self):
        graph = graph_of([("B", "exogenous", ["0"]),
                          ("A", "exogenous", ["0"]),
                          ("C", "endogenous", ["0"])],
                         [("A", "C"), ("B", "C")])
        assert graph.parents("C") == ["B", "A"]

    @pytest.mark.parametrize("method", ["parents", "children"])
    def test_node_not_in_graph_is_unknown_node(self, method):
        graph = CausalGraph.builtin("paper-default")
        with pytest.raises(UnknownNodeError, match="'Nope'"):
            getattr(graph, method)("Nope")


class TestDiscreteDataset:
    def test_rejects_undeclared_category(self):
        # code 1 names a second category that "X" does not declare
        with pytest.raises(SchemaError, match="'X': code out of range"):
            DiscreteDataset(["X"], {"X": ["a"]}, np.array([[1]]))

    def test_rejects_missing_variable(self):
        with pytest.raises(SchemaError, match="#variables"):
            DiscreteDataset(["X", "Y"], {"X": ["a"], "Y": ["b"]},
                            np.array([[0]]))

    def test_document_round_trip(self):
        data = dataset_xy([("0", "1"), ("1", "0")])
        again = DiscreteDataset.from_document(data.to_document())
        assert again.variables == data.variables
        assert np.array_equal(again.codes, data.codes)

    def test_document_with_no_rows(self):
        doc = dataset_xy([]).to_document()
        assert doc["rows"].shape == (0, 2)
        written = ingest.load_json(ingest.write_report(doc))
        assert written["rows"] == []
        assert len(DiscreteDataset.from_document(written)) == 0

    @pytest.mark.parametrize("rows, continuous", [
        ([[0, 1], [1]], {}),
        ([[0, "1"]], {}),
        ([[0, 0.7]], {}),
        ([[True, False]], {}),
        ([[0, 2 ** 70]], {}),
        ([[0, 1]], {"Y": ["0.5"]}),
        ([[0, 1]], {"Y": [None]}),
        ([[0, 1]], {"Y": [[0.5], [1.5, 2.5]]}),
        ([[0, True]], {}),
        ([[0, 1]], {"Y": [0.5, True]}),
    ])
    def test_document_with_mistyped_values_is_schema_error(self, rows,
                                                           continuous):
        doc = dataset_xy([("0", "1")]).to_document()
        doc.update(rows=rows, continuous=continuous)
        with pytest.raises(SchemaError):
            DiscreteDataset.from_document(doc)

    @pytest.mark.parametrize("rows, continuous, named", [
        ([[0, True], [1, 0]], {}, "integer category codes"),
        ([[False, 1], [1, 0]], {}, "integer category codes"),
        ([[0, 1], [1, 0]], {"Y": [0.5, True]}, "'Y' must hold numbers"),
        ([[0, 1], [1, 0]], {"Y": [False, 1]}, "'Y' must hold numbers"),
    ])
    def test_bool_is_not_a_code_or_number(self, rows, continuous, named):
        # NumPy reads [0, True] as int64 [0, 1]; lengths here are right,
        # so only the item types are wrong
        doc = dataset_xy([]).to_document()
        doc.update(rows=rows, continuous=continuous)
        with pytest.raises(SchemaError, match=named):
            DiscreteDataset.from_document(doc)


    @pytest.mark.parametrize("codes", [
        [[1.7]], [[1.0]], np.array([[1.7]]), [[True]], np.array([[False]]),
        [["1"]], np.array([[1]], dtype=object)])
    def test_constructor_refuses_codes_that_are_not_integers(self, codes):
        # a float was truncated (1.7 stored as 1) and a bool read as 0/1
        with pytest.raises(SchemaError, match="codes must be integers"):
            DiscreteDataset(["X"], {"X": ["a", "b", "c"]}, codes)

    def test_no_rows_of_any_dtype_are_no_codes(self):
        # from_document reads "rows": [] as an empty float array
        data = DiscreteDataset(["X"], {"X": ["a", "b"]}, np.zeros((0, 1)))
        assert len(data) == 0
        assert data.codes.dtype == np.uint8

    @pytest.mark.parametrize("codes", [
        np.array([[256]]), np.array([[257]]), np.array([[259]]),
        np.array([[-1]]), np.array([[-255]]),
        np.array([[257]], dtype=np.uint16), np.array([[-256]], dtype=np.int16),
        np.array([[2 ** 64 - 1]], dtype=np.uint64)])
    def test_code_the_narrow_dtype_cannot_hold_never_wraps(self, codes):
        # each wraps to a code of X in uint8 (256 -> 0, 257 -> 1, ...)
        with pytest.raises(SchemaError, match="'X': code out of range"):
            DiscreteDataset(["X"], {"X": ["a", "b", "c"]}, codes)

    @pytest.mark.parametrize("counts, dtype", [
        ([1], np.uint8), ([3, 11], np.uint8), ([256, 2], np.uint8),
        ([257], np.uint16), ([3, 300], np.uint16), ([65_536], np.uint16),
        ([65_537], np.uint32), ([], np.uint8)])
    def test_codes_take_the_narrowest_dtype(self, counts, dtype):
        names = [f"V{j}" for j in range(len(counts))]
        categories = {v: [str(i) for i in range(k)]
                      for v, k in zip(names, counts)}
        top = np.array([[k - 1 for k in counts]], dtype=np.int64)
        data = DiscreteDataset(names, categories, top.reshape(1, -1))
        assert causal.code_dtype(counts) == dtype
        assert data.codes.dtype == dtype
        assert data.codes.tolist() == top.tolist()

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16,
                                       np.uint16, np.int32, np.int64,
                                       np.uint64])
    def test_column_is_int64_for_every_dtype(self, dtype):
        x = ["x"] * 120
        wide = [str(i) for i in range(300)]
        data = DiscreteDataset(["X", "W"], {"X": x, "W": wide}, np.array(
            [[119, 0], [7, 1]], dtype=dtype))
        assert data.codes.dtype == np.uint16
        assert data.column("X").dtype == data.column("W").dtype == np.int64
        # 119 * 300 + 0 is past uint8 and uint16 alike
        assert (data.column("X") * 300 + data.column("W")).tolist() == [
            35_700, 2_101]


class TestFitCpts:
    def test_hand_counts_with_smoothing(self):
        # X=0 rows give Y counts (2, 0); alpha=1 -> P(Y=0|X=0) = 3/4
        data = dataset_xy([("0", "0"), ("0", "0"), ("1", "1")])
        cpts = fit_cpts(binary_chain(), data, alpha=1.0)
        assert cpts["Y"].dist(("0",))[0] == pytest.approx(3 / 4)

    def test_unseen_parent_config_is_uniform(self):
        data = dataset_xy([("0", "0"), ("0", "1")])
        cpts = fit_cpts(binary_chain(), data)
        assert cpts["Y"].dist(("1",)) == pytest.approx([0.5, 0.5])

    def test_rows_normalized(self):
        rng = np.random.default_rng(2)
        pairs = [(str(rng.integers(2)), str(rng.integers(2)))
                 for _ in range(100)]
        cpts = fit_cpts(binary_chain(), dataset_xy(pairs))
        for table in cpts.values():
            for config in table.parent_configs():
                assert abs(table.dist(config).sum() - 1.0) < 1e-9

    def test_missing_variable(self):
        data = dataset_from_rows({"X": ["0", "1"]}, [{"X": "0"}])
        with pytest.raises(MissingVariableError):
            fit_cpts(binary_chain(), data)

    def test_unseen_config_uniform_for_any_alpha(self):
        graph = graph_of([("X", "exogenous", ["0", "1"]),
                          ("Y", "endogenous", ["a", "b", "c"])], [("X", "Y")])
        data = dataset_from_rows(
            {"X": ["0", "1"], "Y": ["a", "b", "c"]},
            [{"X": "0", "Y": "a"}, {"X": "0", "Y": "c"}])
        for alpha in (0.0, 0.3, 1.0):
            table = fit_cpts(graph, data, alpha)["Y"]
            assert table.dist(("1",)).tolist() == [1 / 3] * 3
            assert table.counts.shape == (2, 3)
            table.validate_normalized()

    def test_code_beyond_graph_categories(self):
        # the dataset declares a third X category the graph lacks
        data = dataset_from_rows(
            {"X": ["0", "1", "2"], "Y": ["0", "1"]}, [{"X": "2", "Y": "0"}])
        with pytest.raises(SchemaError):
            fit_cpts(binary_chain(), data)


class TestJointProbability:
    def test_three_independent_uniform_binaries(self):
        graph = graph_of([(n, "exogenous", ["0", "1"]) for n in "ABC"], [])
        rows = [{"A": a, "B": b, "C": c}
                for a in "01" for b in "01" for c in "01"]
        data = dataset_from_rows(
            {n: ["0", "1"] for n in "ABC"}, rows)
        cpts = fit_cpts(graph, data, alpha=0.5)
        for assignment in enumerate_assignments(graph):
            assert joint_probability(graph, cpts, assignment) \
                == pytest.approx(1 / 8)

    def test_chain_product_by_hand(self):
        graph = binary_chain()
        tables = {
            "X": synthetic.exact_table(graph, "X", {(): [0.4, 0.6]}),
            "Y": synthetic.exact_table(graph, "Y", {("0",): [0.7, 0.3],
                                                    ("1",): [0.2, 0.8]}),
        }
        assert joint_probability(graph, tables, {"X": "1", "Y": "1"}) \
            == pytest.approx(0.48)

    def test_sum_over_assignments_is_one(self):
        rng = np.random.default_rng(7)
        graph = CausalGraph.builtin("paper-default")
        spec = synthetic.paper_shaped_spec(n=2000, seed=5)
        data = synthetic.generate(spec)
        cpts = fit_cpts(graph, data)
        total = sum(joint_probability(graph, cpts, a)
                    for a in enumerate_assignments(graph))
        assert abs(total - 1.0) < 1e-9

    def test_incomplete_assignment(self):
        graph = binary_chain()
        data = dataset_xy([("0", "0")])
        cpts = fit_cpts(graph, data)
        with pytest.raises(ValueError, match=r"assignment lacks \['Y'\]"):
            joint_probability(graph, cpts, {"X": "0"})


class TestJointTensor:
    def test_matches_joint_probability_for_fitted_cpts(self):
        spec = synthetic.paper_shaped_spec(n=2000, seed=5)
        graph = spec.graph
        cpts = fit_cpts(graph, synthetic.generate(spec))
        joint = causal.joint_tensor(graph, cpts)
        assert joint.shape == tuple(len(graph.categories[n])
                                    for n in graph.nodes)
        for assignment in enumerate_assignments(graph):
            index = tuple(graph.categories[n].index(assignment[n])
                          for n in graph.nodes)
            assert joint[index] == joint_probability(graph, cpts, assignment)

    def test_do_replaces_factor_with_indicator(self):
        spec = confounded_spec()
        graph, tables = spec.graph, spec.tables
        joint = causal.joint_tensor(graph, tables, do={"X": "1"})
        for assignment in enumerate_assignments(graph):
            expected = 1.0
            for node in graph.nodes:
                if node == "X":
                    expected *= float(assignment["X"] == "1")
                else:
                    expected *= probability(tables[node], assignment[node],
                                            assignment)
            index = tuple(graph.categories[n].index(assignment[n])
                          for n in graph.nodes)
            assert joint[index] == pytest.approx(expected, abs=1e-15)

    def test_unknown_do_level(self):
        spec = confounded_spec()
        with pytest.raises(UnknownLevelError):
            causal.joint_tensor(spec.graph, spec.tables, do={"X": "7"})


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_hand_summation(self):
        assert entropy([0.25, 0.75]) == pytest.approx(0.562335, abs=1e-6)

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            entropy([0.5, 0.6])

    @pytest.mark.parametrize("measure, dist", [
        (entropy, [math.nan, 1.0]), (entropy, [math.inf, 0.0]),
        (entropy, [-math.inf, 1.0]),
        (conditional_entropy, [[math.nan, 0.5], [0.25, 0.25]]),
        (mutual_information, [[math.nan, 0.5], [0.25, 0.25]]),
        (mutual_information, [[math.inf, 0.0], [0.0, 0.0]]),
    ], ids=["entropy-nan", "entropy-inf", "entropy--inf", "conditional-nan",
            "mi-nan", "mi-inf"])
    def test_non_finite_probability(self, measure, dist):
        with pytest.raises(NotNormalizedError):
            measure(dist)


class TestConditionalEntropy:
    def test_deterministic_coupling(self):
        assert conditional_entropy([[0.5, 0.0], [0.0, 0.5]]) \
            == pytest.approx(0.0, abs=1e-12)

    def test_independent_uniform(self):
        assert conditional_entropy([[0.25, 0.25], [0.25, 0.25]]) \
            == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_summation(self):
        assert conditional_entropy([[0.4, 0.1], [0.1, 0.4]]) \
            == pytest.approx(0.500402, abs=1e-6)


class TestMutualInformation:
    def test_diagonal_joint(self):
        assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) \
            == pytest.approx(math.log(2), abs=1e-12)

    def test_product_joint(self):
        p = np.outer([0.3, 0.7], [0.6, 0.4])
        assert mutual_information(p) == pytest.approx(0.0, abs=1e-12)

    def test_hand_summation(self):
        assert mutual_information([[0.4, 0.1], [0.1, 0.4]]) \
            == pytest.approx(0.192745, abs=1e-6)

    def test_identity_with_entropies(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = rng.random((4, 4))
            p /= p.sum()
            mi = mutual_information(p)
            assert mi >= 0.0
            identity = entropy(p.sum(axis=1)) - conditional_entropy(p)
            assert abs(mi - identity) < 1e-9


class TestConditionalMutualInformation:
    def test_empty_conditioning_reduces_to_mi(self):
        rng = np.random.default_rng(3)
        pairs = [(str(rng.integers(2)), str(rng.integers(2)))
                 for _ in range(500)]
        data = dataset_xy(pairs)
        value = conditional_mutual_information(data, "X", "Y", [])
        assert value == mutual_information(smoothed_joint(data, "X", "Y"))

    def test_conditional_null_on_stratified_independence(self):
        rng = np.random.default_rng(6)
        n = 60_000
        z = rng.integers(0, 3, n)
        # X and Y drawn independently within each z stratum
        p_by_z = [0.2, 0.5, 0.8]
        x = (rng.random(n) < np.take(p_by_z, z)).astype(int)
        y = (rng.random(n) < np.take(p_by_z, z)).astype(int)
        rows = [{"X": str(a), "Y": str(b), "Z": str(c)}
                for a, b, c in zip(x, y, z)]
        data = dataset_from_rows(
            {"X": ["0", "1"], "Y": ["0", "1"], "Z": ["0", "1", "2"]}, rows)
        value = conditional_mutual_information(data, "X", "Y", ["Z"])
        assert 0.0 <= value <= 0.01
        # without conditioning the common driver Z induces dependence
        assert conditional_mutual_information(data, "X", "Y", []) > 0.02

    def test_deterministic_copy_matches_entropy(self):
        rng = np.random.default_rng(10)
        n = 50_000
        x = rng.choice(["a", "b", "c"], size=n, p=[0.2, 0.5, 0.3])
        rows = [{"X": v, "Y": v} for v in x]
        data = dataset_from_rows(
            {"X": ["a", "b", "c"], "Y": ["a", "b", "c"]}, rows)
        counts = np.bincount([{"a": 0, "b": 1, "c": 2}[v] for v in x],
                             minlength=3)
        empirical_h = entropy(counts / n)
        value = conditional_mutual_information(data, "X", "Y", [])
        assert value == pytest.approx(empirical_h, abs=0.02)

    def test_x_in_z_rejected(self):
        data = dataset_xy([("0", "0")])
        with pytest.raises(MissingVariableError):
            conditional_mutual_information(data, "X", "Y", ["X"])


def confounded_spec():
    """Z -> X, Z -> Y, X -> Y with tables chosen so the naive mean
    difference is visibly biased; hand-enumerated ACE is 0.42."""
    graph = graph_of([("Z", "exogenous", ["0", "1"]),
                      ("X", "endogenous", ["0", "1"]),
                      ("Y", "endogenous", ["0", "1"])],
                     [("Z", "X"), ("Z", "Y"), ("X", "Y")])
    tables = {
        "Z": synthetic.exact_table(graph, "Z", {(): [0.4, 0.6]}),
        "X": synthetic.exact_table(graph, "X", {("0",): [0.8, 0.2],
                                                ("1",): [0.2, 0.8]}),
        "Y": synthetic.exact_table(graph, "Y", {
            ("0", "0"): [0.8, 0.2],
            ("0", "1"): [0.5, 0.5],
            ("1", "0"): [0.6, 0.4],
            ("1", "1"): [0.1, 0.9],
        }),
    }
    return synthetic.ScmSpec(graph, tables, seed=2024, n=120_000)


class TestAce:
    def test_exogenous_difference_of_means(self):
        # P(Y=1|X=1) = 0.8, P(Y=1|X=0) = 0.3 exactly -> ACE 0.5
        pairs = [("0", "1")] * 3 + [("0", "0")] * 7 \
            + [("1", "1")] * 8 + [("1", "0")] * 2
        data = dataset_xy(pairs)
        assert ace(binary_chain(), data, "X", "Y") == pytest.approx(0.5)

    def test_independent_effect_is_zero(self):
        pairs = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        data = dataset_xy(pairs)
        assert ace(binary_chain(), data, "X", "Y") == pytest.approx(0.0)

    def test_constant_effect_is_zero(self):
        data = dataset_xy([("0", "0"), ("1", "0")] * 5)
        assert ace(binary_chain(), data, "X", "Y") == 0.0

    def test_affine_equivariance_on_continuous_outcome(self):
        rng = np.random.default_rng(1)
        pairs = [(str(rng.integers(2)), "0") for _ in range(200)]
        y = rng.random(200)
        data = dataset_from_rows(
            {"X": ["0", "1"], "Y": ["0"]},
            [{"X": x, "Y": "0"} for x, _ in pairs], {"out": y})
        graph = graph_of([("X", "exogenous", ["0", "1"]),
                          ("Y", "endogenous", ["0"])], [("X", "Y")])
        base = ace(graph, data, "X", "out")
        shifted = DiscreteDataset(data.variables, data.categories, data.codes,
                                  {"out": y + 5.0})
        scaled = DiscreteDataset(data.variables, data.categories, data.codes,
                                 {"out": 3.0 * y})
        assert ace(graph, shifted, "X", "out") == pytest.approx(base, abs=1e-9)
        assert ace(graph, scaled, "X", "out") == pytest.approx(3 * base,
                                                               abs=1e-9)

    def test_swapping_levels_negates(self):
        pairs = [("0", "1")] * 3 + [("0", "0")] * 7 \
            + [("1", "1")] * 8 + [("1", "0")] * 2
        data = dataset_xy(pairs)
        forward = ace(binary_chain(), data, "X", "Y", "0", "1")
        backward = ace(binary_chain(), data, "X", "Y", "1", "0")
        assert forward == pytest.approx(-backward)

    def test_unknown_level(self):
        data = dataset_xy([("0", "0"), ("1", "1")])
        with pytest.raises(UnknownLevelError):
            ace(binary_chain(), data, "X", "Y", "0", "2")

    def test_empty_stratum_raises_then_skips(self):
        graph = graph_of([("Z", "exogenous", ["0", "1"]),
                          ("X", "endogenous", ["0", "1"]),
                          ("Y", "endogenous", ["0", "1"])],
                         [("Z", "X"), ("X", "Y")])
        cats = {"Z": ["0", "1"], "X": ["0", "1"], "Y": ["0", "1"]}
        rows = [{"Z": "0", "X": "0", "Y": "0"},
                {"Z": "0", "X": "1", "Y": "1"},
                {"Z": "1", "X": "0", "Y": "0"}]  # Z=1 stratum lacks X=1
        data = dataset_from_rows(cats, rows)
        with pytest.raises(EmptyStratumError):
            ace(graph, data, "X", "Y")
        value = ace(graph, data, "X", "Y", on_empty="skip")
        assert value == pytest.approx(1.0)

    def test_adjustment_formula_matches_surgery_enumeration(self):
        spec = confounded_spec()
        adjusted = backdoor_ace(spec.graph, spec.tables, "X", "Y")
        assert adjusted == pytest.approx(0.42, abs=1e-12)
        truth = synthetic.true_ace(spec, "X", "Y")
        assert abs(adjusted - truth) < 1e-9
        # the naive conditional contrast is biased by the confounder
        naive = 5.9 / 7 - 2.8 / 11
        assert abs(naive - truth) > 0.1

    def test_cpt_ace_matches_truth_on_paper_shaped(self):
        spec = synthetic.paper_shaped_spec(n=10)
        for cause in ("Age", "VocabDiff"):
            adjusted = backdoor_ace(spec.graph, spec.tables, cause, "GoP")
            truth = synthetic.true_ace(spec, cause, "GoP")
            assert abs(adjusted - truth) < 1e-9

    def test_cpt_ace_matches_truth_on_every_paper_shaped_edge(self):
        # without emitters the truth's outcome is the category index, as
        # it is for backdoor_ace
        spec = synthetic.paper_shaped_spec(n=10)
        spec.emitters = {}
        assert len(spec.graph.edges) == 20
        for cause, effect in spec.graph.edges:
            adjusted = backdoor_ace(spec.graph, spec.tables, cause, effect)
            truth = synthetic.true_ace(spec, cause, effect)
            assert abs(adjusted - truth) < 1e-9, (cause, effect)

    def test_normalized_needs_two_levels(self):
        # a one-category cause has ACE 0, and its record's per-level
        # value is 0.0 rather than a division by zero
        graph = graph_of([("X", "exogenous", ["only"]),
                          ("Y", "endogenous", ["0", "1"])], [("X", "Y")])
        data = dataset_from_rows(
            {"X": ["only"], "Y": ["0", "1"]},
            [{"X": "only", "Y": "0"}, {"X": "only", "Y": "1"}])
        assert ace(graph, data, "X", "Y") == 0.0
        (record,) = edge_report(graph, data)
        assert (record["ace"], record["ace_normalized"]) == (0.0, 0.0)
        assert causal.ace_per_level(graph, "X", 0.0) == 0.0

    def test_estimate_recovers_confounded_truth(self):
        spec = confounded_spec()
        data = synthetic.generate(spec)
        estimate = ace(spec.graph, data, "X", "Y")
        assert estimate == pytest.approx(0.42, abs=0.02)


class TestEdgeReport:
    def test_paper_default_yields_twenty_edges(self):
        spec = synthetic.paper_shaped_spec(n=3000, seed=8)
        data = synthetic.generate(spec)
        records = edge_report(spec.graph, data)
        assert len(records) == 20
        assert {(r["cause"], r["effect"]) for r in records} \
            == set(spec.graph.edges)

    def test_normalized_divides_by_levels(self):
        spec = synthetic.paper_shaped_spec(n=3000, seed=8)
        records = edge_report(spec.graph, synthetic.generate(spec))
        (age,) = [r for r in records
                  if (r["cause"], r["effect"]) == ("Age", "SubsErr")]
        assert age["ace"] != 0.0
        assert age["ace_normalized"] == age["ace"] / 10

    def test_single_edge_cmi_is_plain_mi(self):
        rng = np.random.default_rng(4)
        pairs = [(str(rng.integers(2)), str(rng.integers(2)))
                 for _ in range(300)]
        data = dataset_xy(pairs)
        (record,) = edge_report(binary_chain(), data)
        assert record["conditioning"] == []
        assert record["cmi"] == mutual_information(smoothed_joint(data, "X", "Y"))

    def test_continuous_outcome_preferred_for_ace(self):
        graph = binary_chain()
        pairs = [("0", "0"), ("1", "1")] * 10
        rows = [{"X": x, "Y": y} for x, y in pairs]
        outcome = [0.0 if x == "0" else 10.0 for x, _ in pairs]
        data = dataset_from_rows({"X": ["0", "1"], "Y": ["0", "1"]},
                                         rows, {"Y": outcome})
        (record,) = edge_report(graph, data)
        assert record["ace"] == pytest.approx(10.0)


# --- row-scan references -------------------------------------------------------
# The estimators as they were before they read count tensors: every call
# scans the rows.  Counts and CMI must match them bit for bit; ACE sums
# the outcome per cell and then per stratum, so it may differ in the
# last bits.

def ref_config_index(data, variables):
    idx = np.zeros(len(data), dtype=np.int64)
    total = 1
    for v in variables:
        k = len(data.categories[v])
        idx = idx * k + data.column(v)
        total *= k
    return idx, total


def ref_cmi(data, x, y, z=(), alpha=1.0):
    z = list(z)
    kx = len(data.categories[x])
    ky = len(data.categories[y])
    z_idx, kz = ref_config_index(data, z)
    flat = np.bincount((data.column(x) * ky + data.column(y)) * kz + z_idx,
                       minlength=kx * ky * kz).astype(np.float64)
    p = (flat + alpha)
    p /= p.sum()
    p = p.reshape(kx, ky, kz)
    p_z = p.sum(axis=(0, 1))
    p_xz = p.sum(axis=1)
    p_yz = p.sum(axis=0)
    i, j, k = np.nonzero(p > 0)
    cell = p[i, j, k]
    out = np.sum(cell * np.log(cell * p_z[k] / (p_xz[i, k] * p_yz[j, k])))
    return float(max(0.0, out))


def ref_ace(graph, data, treatment, effect, on_empty="error"):
    lo, hi = graph.categories[treatment][0], graph.categories[treatment][-1]
    y = (data.continuous[effect] if effect in data.continuous
         else data.column(effect).astype(np.float64))
    t_codes = data.column(treatment)
    cats = data.categories[treatment]
    code_lo, code_hi = cats.index(lo), cats.index(hi)
    z_idx, n_cfg = ref_config_index(data, graph.parents(treatment))
    z_counts = np.bincount(z_idx, minlength=n_cfg).astype(np.float64)
    diffs = np.zeros(n_cfg)
    usable = z_counts > 0
    for code, sign in ((code_hi, 1.0), (code_lo, -1.0)):
        mask = t_codes == code
        cell_n = np.bincount(z_idx[mask], minlength=n_cfg)
        cell_sum = np.bincount(z_idx[mask], weights=y[mask], minlength=n_cfg)
        empty = usable & (cell_n == 0)
        if np.any(empty):
            if on_empty != "skip":
                raise EmptyStratumError("reference: empty stratum")
            usable &= cell_n > 0
        with np.errstate(invalid="ignore"):
            means = np.where(cell_n > 0, cell_sum / np.maximum(cell_n, 1), 0.0)
        diffs += sign * means
    weight = z_counts * usable
    return float(np.sum(diffs * weight) / weight.sum())


def ref_family_counts(graph, data, node):
    family = (*graph.parents(node), node)
    shape = tuple(len(graph.categories[v]) for v in family)
    flat = np.ravel_multi_index([data.column(v) for v in family], shape)
    return np.bincount(flat, minlength=np.prod(shape)).reshape(shape)


def late_parent_graph():
    """C is declared before its parent B, so C's family axes are not in
    declaration order; Y has three parents and a continuous column."""
    return graph_of([("A", "exogenous", ["a0", "a1", "a2"]),
                     ("C", "endogenous", ["c0", "c1"]),
                     ("B", "exogenous", ["b0", "b1", "b2", "b3"]),
                     ("Y", "endogenous", ["y0", "y1", "y2"])],
                    [("B", "C"), ("A", "C"), ("A", "Y"), ("C", "Y"),
                     ("B", "Y")])


def random_dataset(graph, n, seed, continuous=("Y",)):
    rng = np.random.default_rng(seed)
    codes = np.stack([rng.integers(0, len(graph.categories[v]), n)
                      for v in graph.nodes], axis=1)
    cont = {name: rng.normal(size=n) * 0.1 + codes[:, -1]
            for name in continuous}
    return DiscreteDataset(graph.nodes, graph.categories, codes, cont)


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestCountTensorsAgainstRowScan:
    def datasets(self, seed):
        spec = synthetic.paper_shaped_spec(n=20_000, seed=300 + seed)
        yield spec.graph, synthetic.generate(spec)
        graph = late_parent_graph()
        yield graph, random_dataset(graph, 3_000, seed)

    def test_edge_report_matches_reference(self, seed):
        for graph, data in self.datasets(seed):
            for record in edge_report(graph, data, alpha=0.5):
                cause, effect = record["cause"], record["effect"]
                others = record["conditioning"]
                assert record["cmi"] == ref_cmi(data, cause, effect, others,
                                                alpha=0.5)
                assert abs(record["ace"] - ref_ace(graph, data, cause,
                                                   effect)) <= 1e-12

    def test_public_estimators_match_reference(self, seed):
        for graph, data in self.datasets(seed):
            for cause, effect in graph.edges:
                assert abs(ace(graph, data, cause, effect)
                           - ref_ace(graph, data, cause, effect)) <= 1e-12
            nodes = graph.nodes
            # conditioning sets out of declaration order
            for z in ([], nodes[2:0:-1], [nodes[-1], nodes[1]]):
                x, y = [v for v in nodes if v not in z][:2]
                assert conditional_mutual_information(data, x, y, z) \
                    == ref_cmi(data, x, y, z)

    def test_cpt_counts_match_reference(self, seed):
        for graph, data in self.datasets(seed):
            tables = fit_cpts(graph, data)
            for node in graph.nodes:
                expected = ref_family_counts(graph, data, node)
                assert tables[node].counts.dtype == expected.dtype
                assert np.array_equal(tables[node].counts, expected)


def empty_stratum_data():
    """Z -> X -> Y with the Z=1 stratum lacking X=1."""
    graph = graph_of([("Z", "exogenous", ["0", "1"]),
                      ("X", "endogenous", ["0", "1"]),
                      ("Y", "endogenous", ["0", "1"])],
                     [("Z", "X"), ("X", "Y")])
    cats = {"Z": ["0", "1"], "X": ["0", "1"], "Y": ["0", "1"]}
    rows = [{"Z": "0", "X": "0", "Y": "0"}, {"Z": "0", "X": "1", "Y": "1"},
            {"Z": "1", "X": "0", "Y": "0"}, {"Z": "0", "X": "1", "Y": "0"}]
    return graph, dataset_from_rows(cats, rows, {"Y": [0.5, 2.0,
                                                               0.25, 1.0]})


class TestEstimatorEdgeCases:
    def test_on_empty_error_and_skip_in_edge_report(self):
        graph, data = empty_stratum_data()
        with pytest.raises(EmptyStratumError):
            edge_report(graph, data)
        with pytest.raises(EmptyStratumError):
            ref_ace(graph, data, "X", "Y")
        records = {(r["cause"], r["effect"]): r
                   for r in edge_report(graph, data, on_empty="skip")}
        assert records[("X", "Y")]["ace"] == ref_ace(graph, data, "X", "Y",
                                                     on_empty="skip")
        assert records[("Z", "X")]["ace"] == ref_ace(graph, data, "Z", "X")

    def test_empty_stratum_names_edge_arm_and_strata(self):
        spec = synthetic.paper_shaped_spec(n=2000, seed=3)
        data = synthetic.generate(spec)
        keep = data.column("Age") != 10  # no row of grade 10
        data = DiscreteDataset(data.variables, data.categories,
                               data.codes[keep],
                               {name: column[keep] for name, column
                                in data.continuous.items()})
        arm = "Age=10 is empty in 1 of 1 populated strata of []"
        for run, message in [
                (lambda: edge_report(spec.graph, data),
                 f"Age->SubsErr: {arm}"),
                (lambda: edge_report(spec.graph, data, on_empty="skip"),
                 f"Age->SubsErr: no usable strata: {arm}"),
                (lambda: ace(spec.graph, data, "Age", "GoP"),
                 f"Age->GoP: {arm}")]:
            with pytest.raises(EmptyStratumError) as info:
                run()
            assert str(info.value) == message

    def test_no_rows_is_no_usable_strata(self):
        graph, data = empty_stratum_data()
        empty = DiscreteDataset(data.variables, data.categories,
                                data.codes[:0])
        with pytest.raises(EmptyStratumError) as info:
            ace(graph, empty, "X", "Y", on_empty="skip")
        assert str(info.value) == ("X->Y: no usable strata: none of the 2 "
                                   "strata of ['Z'] holds a row")

    def test_state_cap_raises_state_explosion(self):
        names = [f"V{i}" for i in range(8)]  # 8^8 = 16.8M joint states
        graph = graph_of([(n, "exogenous", [str(c) for c in range(8)])
                          for n in names], [("V0", "V1")])
        data = random_dataset(graph, 50, 0, continuous=())
        with pytest.raises(StateExplosionError):
            edge_report(graph, data)
        with pytest.raises(StateExplosionError):
            fit_cpts(graph, data)
        # a single edge needs only its own variables
        assert ace(graph, data, "V0", "V1") == ref_ace(graph, data, "V0", "V1")

    @pytest.mark.parametrize("command", [
        ["report", "--in", "d.json", "--out", "r.json"],
        ["fit", "--in", "d.json", "--out", "c.json"],
        ["ace", "--in", "d.json", "--treatment", "SNR",
         "--effect", "SubsErr"],
    ], ids=["report", "fit", "ace"])
    def test_code_beyond_graph_categories_is_e_schema(self, command, tmp_path,
                                                      monkeypatch, capsys):
        spec = synthetic.paper_shaped_spec(n=400, seed=3)
        doc = synthetic.generate(spec).to_document()
        snr = [v for v in doc["variables"] if v["name"] == "SNR"][0]
        snr["categories"].append("Extreme")
        j = [v["name"] for v in doc["variables"]].index("SNR")
        doc["rows"][7][j] = 3
        (tmp_path / "d.json").write_text(ingest.write_report(doc))
        monkeypatch.chdir(tmp_path)
        assert cli.main(command) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["error"] == "E_SCHEMA"
        assert "'SNR'" in error["message"]
