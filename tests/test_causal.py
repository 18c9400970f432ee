import math

import numpy as np
import pytest

from asrcausal import causal, synthetic
from asrcausal.causal import (
    CausalGraph,
    DiscreteDataset,
    ace,
    conditional_entropy,
    conditional_mutual_information,
    edge_report,
    enumerate_assignments,
    entropy,
    fit_cpts,
    joint_probability,
    mutual_information,
    smoothed_joint,
)
from asrcausal.errors import (
    EmptyStratumError,
    IncompleteAssignmentError,
    MissingVariableError,
    NotNormalizedError,
    SchemaError,
    UnknownLevelError,
)
from asrcausal.ingest import GraphSpec, NodeSpec


def graph_of(nodes, edges):
    spec = GraphSpec(
        nodes=tuple(NodeSpec(name, kind, tuple(cats))
                    for name, kind, cats in nodes),
        edges=tuple(edges),
    )
    return CausalGraph(spec)


def binary_chain():
    return graph_of([("X", "exogenous", ["0", "1"]),
                     ("Y", "endogenous", ["0", "1"])],
                    [("X", "Y")])


def dataset_xy(pairs):
    rows = [{"X": x, "Y": y} for x, y in pairs]
    return DiscreteDataset.from_rows({"X": ["0", "1"], "Y": ["0", "1"]}, rows)


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


class TestDiscreteDataset:
    def test_rejects_undeclared_category(self):
        with pytest.raises(SchemaError):
            DiscreteDataset.from_rows({"X": ["a"]}, [{"X": "b"}])

    def test_rejects_missing_variable(self):
        with pytest.raises(SchemaError):
            DiscreteDataset.from_rows({"X": ["a"], "Y": ["b"]}, [{"X": "a"}])

    def test_document_round_trip(self):
        data = dataset_xy([("0", "1"), ("1", "0")])
        again = DiscreteDataset.from_document(data.to_document())
        assert again.variables == data.variables
        assert np.array_equal(again.codes, data.codes)

    def test_document_with_no_rows(self):
        doc = dataset_xy([]).to_document()
        assert doc["rows"] == []
        assert len(DiscreteDataset.from_document(doc)) == 0

    @pytest.mark.parametrize("rows, continuous", [
        ([[0, 1], [1]], {}),
        ([[0, "1"]], {}),
        ([[0, 0.7]], {}),
        ([[True, False]], {}),
        ([[0, 2 ** 70]], {}),
        ([[0, 1]], {"Y": ["0.5"]}),
        ([[0, 1]], {"Y": [None]}),
        ([[0, 1]], {"Y": [[0.5], [1.5, 2.5]]}),
    ])
    def test_document_with_mistyped_values_is_schema_error(self, rows,
                                                           continuous):
        doc = dataset_xy([("0", "1")]).to_document()
        doc.update(rows=rows, continuous=continuous)
        with pytest.raises(SchemaError):
            DiscreteDataset.from_document(doc)


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
        data = DiscreteDataset.from_rows({"X": ["0", "1"]}, [{"X": "0"}])
        with pytest.raises(MissingVariableError):
            fit_cpts(binary_chain(), data)

    def test_unseen_config_uniform_for_any_alpha(self):
        graph = graph_of([("X", "exogenous", ["0", "1"]),
                          ("Y", "endogenous", ["a", "b", "c"])], [("X", "Y")])
        data = DiscreteDataset.from_rows(
            {"X": ["0", "1"], "Y": ["a", "b", "c"]},
            [{"X": "0", "Y": "a"}, {"X": "0", "Y": "c"}])
        for alpha in (0.0, 0.3, 1.0):
            table = fit_cpts(graph, data, alpha)["Y"]
            assert table.dist(("1",)).tolist() == [1 / 3] * 3
            assert table.counts.shape == (2, 3)
            table.validate_normalized()

    def test_code_beyond_graph_categories(self):
        # the dataset declares a third X category the graph lacks
        data = DiscreteDataset.from_rows(
            {"X": ["0", "1", "2"], "Y": ["0", "1"]}, [{"X": "2", "Y": "0"}])
        with pytest.raises(SchemaError):
            fit_cpts(binary_chain(), data)


class TestJointProbability:
    def test_three_independent_uniform_binaries(self):
        graph = graph_of([(n, "exogenous", ["0", "1"]) for n in "ABC"], [])
        rows = [{"A": a, "B": b, "C": c}
                for a in "01" for b in "01" for c in "01"]
        data = DiscreteDataset.from_rows(
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
        with pytest.raises(IncompleteAssignmentError):
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
                    expected *= tables[node].prob(assignment[node], assignment)
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
        data = DiscreteDataset.from_rows(
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
        data = DiscreteDataset.from_rows(
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
        data = DiscreteDataset.from_rows(
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
        data = DiscreteDataset.from_rows(cats, rows)
        with pytest.raises(EmptyStratumError):
            ace(graph, data, "X", "Y")
        value = ace(graph, data, "X", "Y", on_empty="skip")
        assert value == pytest.approx(1.0)

    def test_adjustment_formula_matches_surgery_enumeration(self):
        spec = confounded_spec()
        adjusted = ace(spec.graph, spec.tables, "X", "Y")
        assert adjusted == pytest.approx(0.42, abs=1e-12)
        truth = synthetic.true_ace(spec, "X", "Y")
        assert abs(adjusted - truth) < 1e-9
        # the naive conditional contrast is biased by the confounder
        naive = 5.9 / 7 - 2.8 / 11
        assert abs(naive - truth) > 0.1

    def test_cpt_ace_matches_truth_on_paper_shaped(self):
        spec = synthetic.paper_shaped_spec(n=10)
        for cause in ("Age", "VocabDiff"):
            adjusted = ace(spec.graph, spec.tables, cause, "GoP")
            truth = synthetic.true_ace(spec, cause, "GoP")
            assert abs(adjusted - truth) < 1e-9

    def test_normalized_needs_two_levels(self):
        graph = graph_of([("X", "exogenous", ["only"]),
                          ("Y", "endogenous", ["0", "1"])], [("X", "Y")])
        data = DiscreteDataset.from_rows(
            {"X": ["only"], "Y": ["0", "1"]},
            [{"X": "only", "Y": "0"}, {"X": "only", "Y": "1"}])
        assert ace(graph, data, "X", "Y") == 0.0
        with pytest.raises(UnknownLevelError):
            ace(graph, data, "X", "Y", normalized=True)

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
        data = DiscreteDataset.from_rows({"X": ["0", "1"], "Y": ["0", "1"]},
                                         rows, {"Y": outcome})
        (record,) = edge_report(graph, data)
        assert record["ace"] == pytest.approx(10.0)
