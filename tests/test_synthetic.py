import dataclasses
import itertools
import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from asrcausal import causal, ingest, synthetic
from asrcausal.causal import CausalGraph
from asrcausal.errors import (
    InvalidSpecError,
    StateExplosionError,
)
from asrcausal.synthetic import (
    EffectEmitter,
    ScmSpec,
    builtin_scm_spec,
    copy_chain_spec,
    exact_table,
    generate,
    paper_shaped_spec,
    parse_scm_spec,
    true_ace,
    true_cmi,
    true_edges,
)

from support import write_scm_spec


def small_graph(edges, nodes):
    return CausalGraph(nodes, edges)


def chain_spec(p_x=0.5, p_y_given=((0.7, 0.3), (0.2, 0.8)), n=1000, seed=3):
    graph = small_graph([("X", "Y")],
                        [("X", "exogenous", ["0", "1"]),
                         ("Y", "endogenous", ["0", "1"])])
    tables = {
        "X": exact_table(graph, "X", {(): [1 - p_x, p_x]}),
        "Y": exact_table(graph, "Y", {("0",): list(p_y_given[0]),
                                      ("1",): list(p_y_given[1])}),
    }
    return ScmSpec(graph, tables, seed=seed, n=n)


def gathered_codes(spec, n, seed):
    """Each node's codes by the full-CDF gather ``generate`` used before:
    one CDF row per sample, ``(u >= cum[parents]).sum(axis=1)``."""
    graph = spec.graph
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n, len(graph.topo_order) + len(spec.emitters)))
    code_of = {}
    for j, node in enumerate(graph.topo_order):
        table = spec.tables[node]
        cum = np.cumsum(table.probs, axis=-1)
        rows = cum[tuple(code_of[p] for p in table.parents)]
        codes = (u[:, j][:, None] >= rows).sum(axis=1)
        code_of[node] = np.minimum(codes, cum.shape[-1] - 1)
    return code_of


def whole_matrix_generate(spec, n, seed):
    """``generate`` as it was before it sampled in blocks: one (n, width)
    draw of uniforms, one code array per node, then ``np.stack``."""
    graph = spec.graph
    emitter_nodes = sorted(spec.emitters)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n, len(graph.topo_order) + len(emitter_nodes)))

    code_of = {}
    for j, node in enumerate(graph.topo_order):
        table = spec.tables[node]
        k = table.probs.shape[-1]
        cum = np.cumsum(table.probs, axis=-1).reshape(-1, k)
        config = (np.ravel_multi_index(
            tuple(code_of[p] for p in table.parents), table.probs.shape[:-1])
            if table.parents else 0)
        uj = u[:, j].copy()
        codes = np.zeros(n, dtype=np.int64)
        for i in range(k):
            codes += uj >= cum[:, i][config]
        code_of[node] = np.minimum(codes, k - 1)

    continuous = {}
    for m, node in enumerate(emitter_nodes):
        emitter = spec.emitters[node]
        noise = synthetic._ndtri(
            np.clip(u[:, len(graph.topo_order) + m], 1e-12, 1 - 1e-12))
        means = np.asarray(emitter.means, dtype=np.float64)
        continuous[node] = means[code_of[node]] + emitter.spread * noise

    codes = (np.stack([code_of[v] for v in graph.nodes], axis=1)
             if n else np.zeros((0, len(graph.nodes)), dtype=np.int64))
    return codes, continuous


BLOCK = synthetic._BLOCK_ROWS


class TestGenerate:
    def test_empty_dataset(self):
        data = generate(chain_spec(n=0))
        assert len(data) == 0

    # Row counts on either side of the first and second block boundaries,
    # plus ragged tails after three and six whole blocks.
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
                                   3 * BLOCK + 7, 6 * BLOCK + 7])
    @pytest.mark.parametrize("seed", [1, 7, 1001])
    @pytest.mark.parametrize("name", ["paper-shaped", "copy-chain"])
    def test_blocks_equal_the_whole_matrix_sampler(self, name, seed, n):
        spec = builtin_scm_spec(name)
        data = generate(dataclasses.replace(spec, n=n, seed=seed))
        codes, continuous = whole_matrix_generate(spec, n, seed)
        assert data.codes.dtype == np.uint8
        assert data.codes.shape == codes.shape
        assert np.array_equal(data.codes, codes)
        assert list(data.continuous) == list(continuous)
        for node, column in continuous.items():
            # bit for bit
            assert np.array_equal(data.continuous[node].view(np.int64),
                                  column.view(np.int64)), node

    def test_seed_spans_the_philox_key_range(self):
        spec = chain_spec(n=5)
        for seed in (0, 2 ** 128 - 1):
            assert len(generate(dataclasses.replace(spec, seed=seed))) == 5
        for seed in (-1, 2 ** 128):
            with pytest.raises(InvalidSpecError, match=f"seed {seed} "):
                generate(dataclasses.replace(spec, seed=seed))
            with pytest.raises(InvalidSpecError, match=f"seed {seed} "):
                chain_spec(seed=seed).validate()

    @pytest.mark.parametrize("n", [0, 1, 5000])
    @pytest.mark.parametrize("seed", [1, 7, 2024])
    @pytest.mark.parametrize("name", ["paper-shaped", "copy-chain"])
    def test_codes_match_the_full_cdf_gather(self, name, seed, n):
        spec = builtin_scm_spec(name)
        data = generate(dataclasses.replace(spec, n=n, seed=seed))
        expected = gathered_codes(spec, n, seed)
        for node in spec.graph.nodes:
            assert np.array_equal(data.column(node), expected[node]), node

    def test_same_seed_identical(self):
        spec = paper_shaped_spec(n=2000, seed=11)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.codes, b.codes)
        for name in a.continuous:
            assert np.array_equal(a.continuous[name], b.continuous[name])
        assert (ingest.write_report(a.to_document())
                == ingest.write_report(b.to_document()))

    def test_different_seed_differs(self):
        spec = chain_spec(n=500)
        a = generate(dataclasses.replace(spec, seed=1))
        b = generate(dataclasses.replace(spec, seed=2))
        assert not np.array_equal(a.codes, b.codes)

    def test_exogenous_frequency_concentrates(self):
        spec = chain_spec(p_x=0.6, n=200_000)
        data = generate(spec)
        freq = data.column("X").mean()
        assert freq == pytest.approx(0.6, abs=0.005)

    def test_sampled_joint_close_to_enumerated(self):
        spec = confounded_triple(n=200_000)
        data = generate(spec)
        joint = causal.joint_tensor(spec.graph, spec.tables)
        counts = np.zeros(joint.shape)
        for row in data.codes:
            counts[tuple(row)] += 1
        tv = 0.5 * np.abs(counts / len(data) - joint).sum()
        assert tv <= 0.01

    def test_emitter_means_respect_categories(self):
        graph = small_graph([], [("E", "exogenous", ["a", "b"])])
        spec = ScmSpec(graph,
                       {"E": exact_table(graph, "E", {(): [0.5, 0.5]})},
                       seed=4, n=50_000,
                       emitters={"E": EffectEmitter((1.0, 5.0), 0.1)})
        data = generate(spec)
        values = data.continuous["E"]
        codes = data.column("E")
        assert values[codes == 0].mean() == pytest.approx(1.0, abs=0.01)
        assert values[codes == 1].mean() == pytest.approx(5.0, abs=0.01)


def confounded_triple(n=1000, null_effect=False):
    graph = small_graph([("Z", "X"), ("Z", "Y")] +
                        ([] if null_effect else [("X", "Y")]),
                        [("Z", "exogenous", ["0", "1"]),
                         ("X", "endogenous", ["0", "1"]),
                         ("Y", "endogenous", ["0", "1"])])
    tables = {
        "Z": exact_table(graph, "Z", {(): [0.4, 0.6]}),
        "X": exact_table(graph, "X", {("0",): [0.8, 0.2],
                                      ("1",): [0.2, 0.8]}),
    }
    if null_effect:
        tables["Y"] = exact_table(graph, "Y", {("0",): [0.7, 0.3],
                                               ("1",): [0.3, 0.7]})
    else:
        tables["Y"] = exact_table(graph, "Y", {
            ("0", "0"): [0.8, 0.2], ("0", "1"): [0.5, 0.5],
            ("1", "0"): [0.6, 0.4], ("1", "1"): [0.1, 0.9]})
    return ScmSpec(graph, tables, seed=5, n=n)


class TestTrueAce:
    def test_chain_by_hand(self):
        spec = chain_spec(p_y_given=((0.7, 0.3), (0.2, 0.8)))
        assert true_ace(spec, "X", "Y") == pytest.approx(0.5, abs=1e-12)

    def test_confounded_null_despite_correlation(self):
        spec = confounded_triple(null_effect=True)
        assert true_ace(spec, "X", "Y") == pytest.approx(0.0, abs=1e-12)

    def test_confounded_effect_by_hand(self):
        # sum_z P(z) [P(Y=1|z,X=1) - P(Y=1|z,X=0)] = 0.42
        spec = confounded_triple()
        assert true_ace(spec, "X", "Y") == pytest.approx(0.42, abs=1e-12)

    def test_exogenous_equals_conditional_mean_difference(self):
        spec = chain_spec(p_y_given=((0.9, 0.1), (0.4, 0.6)))
        assert true_ace(spec, "X", "Y") == pytest.approx(0.5, abs=1e-12)

    def test_emitter_outcome_uses_means(self):
        spec = chain_spec(p_y_given=((1.0, 0.0), (0.0, 1.0)))
        spec.emitters["Y"] = EffectEmitter((2.0, 12.0), 0.5)
        assert true_ace(spec, "X", "Y") == pytest.approx(10.0, abs=1e-12)

    def test_normalized_divides_by_levels(self):
        spec = paper_shaped_spec(n=10)
        (record,) = [r for r in true_edges(spec)
                     if (r["cause"], r["effect"]) == ("Age", "SubsErr")]
        assert record["ace"] == true_ace(spec, "Age", "SubsErr") != 0.0
        assert record["ace_normalized"] == record["ace"] / 10

    def test_normalized_needs_two_levels(self):
        # a one-category cause has ACE 0, and its record's per-level
        # value is 0.0 rather than a division by zero
        graph = small_graph([("X", "Y")],
                            [("X", "exogenous", ["only"]),
                             ("Y", "endogenous", ["0", "1"])])
        tables = {"X": exact_table(graph, "X", {(): [1.0]}),
                  "Y": exact_table(graph, "Y", {("only",): [0.5, 0.5]})}
        spec = ScmSpec(graph, tables, seed=0, n=1)
        assert true_ace(spec, "X", "Y") == 0.0
        (record,) = true_edges(spec)
        assert (record["ace"], record["ace_normalized"]) == (0.0, 0.0)

    def test_state_explosion_guard(self):
        nodes = [(f"N{i}", "exogenous", [str(j) for j in range(10)])
                 for i in range(8)]
        graph = small_graph([], nodes)
        tables = {f"N{i}": exact_table(graph, f"N{i}", {(): [0.1] * 10})
                  for i in range(8)}
        spec = ScmSpec(graph, tables, seed=0, n=1)
        with pytest.raises(StateExplosionError):
            true_ace(spec, "N0", "N1")


class TestTrueCmi:
    def test_d_separated_is_exactly_zero(self):
        spec = confounded_triple(null_effect=True)
        # X and Y are d-separated given Z
        assert true_cmi(spec, "X", "Y", ["Z"]) == 0.0

    def test_marginally_dependent_through_confounder(self):
        spec = confounded_triple(null_effect=True)
        assert true_cmi(spec, "X", "Y") > 0.01

    def test_deterministic_copy_equals_entropy(self):
        spec = copy_chain_spec()
        expected = -(0.2 * math.log(0.2) + 0.5 * math.log(0.5)
                     + 0.3 * math.log(0.3))
        assert true_cmi(spec, "X", "Y") == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_everywhere(self):
        spec = paper_shaped_spec(n=10)
        for x, y in itertools.combinations(spec.graph.nodes[:5], 2):
            assert true_cmi(spec, x, y) >= 0.0


class TestTrueEdges:
    def test_records_equal_per_edge_oracles_bit_for_bit(self):
        spec = paper_shaped_spec(n=10)
        records = true_edges(spec)
        assert [(r["cause"], r["effect"]) for r in records] \
            == spec.graph.edges
        for r in records:
            others = [p for p in spec.graph.parents(r["effect"])
                      if p != r["cause"]]
            assert r["conditioning"] == others
            assert r["ace"] == true_ace(spec, r["cause"], r["effect"])
            assert r["cmi"] == true_cmi(spec, r["cause"], r["effect"], others)

    def test_enumerates_each_joint_once(self, monkeypatch):
        calls = []
        joint_tensor = synthetic.joint_tensor

        def counted(graph, tables, do=None):
            calls.append(do)
            return joint_tensor(graph, tables, do)

        monkeypatch.setattr(synthetic, "joint_tensor", counted)
        true_edges(confounded_triple(null_effect=False))
        # the observational joint, then do(X=1) and do(X=0) for X's edge
        # and do(Z=1) and do(Z=0) for Z's two edges
        assert sorted(map(str, calls)) == sorted(map(str, [
            None, {"X": "1"}, {"X": "0"}, {"Z": "1"}, {"Z": "0"}]))


class TestFixtures:
    def test_paper_shaped_shape(self):
        spec = paper_shaped_spec(n=100)
        assert len(spec.graph.nodes) == 9
        assert len(spec.graph.edges) == 20
        assert len(spec.graph.categories["Age"]) == 11
        assert set(spec.emitters) == {"SubsErr", "DelErr", "InsErr"}
        spec.validate()

    def test_paper_shaped_tables_match_config_by_config(self):
        # the reference: the fixture built one parent configuration at a
        # time, a Python softmax each, through exact_table
        def softmax(eta, k, floor):
            raw = [math.exp(j * eta) for j in range(k)]
            total = sum(raw)
            probs = [max(p / total, floor) for p in raw]
            total = sum(probs)
            return [p / total for p in probs]

        def eta_of(node, at):
            if node == "GoP":
                return (0.35 * (at["Age"] - 5) / 3
                        - 0.55 * (at["VocabDiff"] - 1))
            c0, c_age, c_girl, c_vocab, c_gop, c_snr, c_words = \
                synthetic._ERROR_COEFFS[node]
            return (c0
                    + c_age * (at["Age"] - 5) / 3
                    + c_girl * at["Gender"]
                    + c_vocab * (at["VocabDiff"] - 1)
                    + c_gop * (at["GoP"] - 1)
                    + c_snr * (at["SNR"] - 1)
                    + c_words * (at["NoWords"] - 1))

        spec = paper_shaped_spec(n=10)
        graph = spec.graph
        for node in ("GoP", "SubsErr", "DelErr", "InsErr"):
            parents = graph.parents(node)
            probs = {}
            for config in itertools.product(
                    *(graph.categories[p] for p in parents)):
                at = {p: graph.categories[p].index(label)
                      for p, label in zip(parents, config)}
                probs[config] = softmax(eta_of(node, at), 3,
                                        0.06 if node == "GoP" else 0.02)
            expected = exact_table(graph, node, probs).probs
            got = spec.tables[node].probs
            assert got.shape == expected.shape, node
            assert got.tobytes() == expected.tobytes(), node
        for node, vec in (("Age", [1 / 11] * 11), ("Gender", [0.52, 0.48]),
                          ("SNR", [0.25, 0.50, 0.25]),
                          ("VocabDiff", [0.30, 0.45, 0.25]),
                          ("NoWords", [0.35, 0.40, 0.25])):
            expected = exact_table(graph, node, {(): vec}).probs
            assert spec.tables[node].probs.tobytes() == expected.tobytes()

    def test_paper_shaped_is_enumerable(self):
        spec = paper_shaped_spec(n=10)
        assert spec.graph.state_space() == 48114

    def test_builtin_lookup(self):
        assert builtin_scm_spec("copy-chain").graph.nodes == ["X", "Y"]
        with pytest.raises(InvalidSpecError):
            builtin_scm_spec("nope")

    def test_document_round_trip(self):
        spec = copy_chain_spec(n=123, seed=42)
        text = write_scm_spec(spec)
        again = parse_scm_spec(text)
        assert again.n == 123 and again.seed == 42
        assert np.array_equal(generate(again).codes, generate(spec).codes)
        assert write_scm_spec(again) == text

    def test_validation_rejects_missing_table(self):
        graph = small_graph([("X", "Y")],
                            [("X", "exogenous", ["0", "1"]),
                             ("Y", "endogenous", ["0", "1"])])
        spec = ScmSpec(graph, {"X": exact_table(graph, "X", {(): [0.5, 0.5]})},
                       seed=0, n=1)
        with pytest.raises(InvalidSpecError):
            spec.validate()

    def test_validation_rejects_unnormalized_table(self):
        graph = small_graph([], [("X", "exogenous", ["0", "1"])])
        table = exact_table(graph, "X", {(): [0.5, 0.6]})
        spec = ScmSpec(graph, {"X": table}, seed=0, n=1)
        with pytest.raises(InvalidSpecError):
            spec.validate()

    def test_exact_table_rejects_wrong_length(self):
        graph = small_graph([], [("X", "exogenous", ["a", "b", "c"])])
        with pytest.raises(InvalidSpecError):
            exact_table(graph, "X", {(): [0.5, 0.5]})

    def test_exact_table_rejects_unknown_config(self):
        spec = chain_spec()
        with pytest.raises(InvalidSpecError):
            exact_table(spec.graph, "Y", {("0",): [0.5, 0.5],
                                          ("1",): [0.5, 0.5],
                                          ("zz",): [0.5, 0.5]})
        with pytest.raises(InvalidSpecError):
            exact_table(spec.graph, "Y", {("0",): [0.5, 0.5],
                                          ("1", "0"): [0.5, 0.5]})

    def test_validation_rejects_bad_emitter(self):
        spec = chain_spec()
        spec.emitters["Y"] = EffectEmitter((1.0,), 0.1)  # wrong arity
        with pytest.raises(InvalidSpecError):
            spec.validate()

    @pytest.mark.parametrize("vec", [[math.nan, 1.0], [math.inf, 0.0],
                                     [-0.5, 1.5], [0.5, 0.6]],
                             ids=["nan", "inf", "negative", "sum"])
    def test_validation_names_node_and_config_of_a_bad_entry(self, vec):
        # sum([nan, 1.0]) - 1 is NaN, which a bare tolerance test passes
        spec = chain_spec()
        spec.tables["Y"] = exact_table(spec.graph, "Y", {("0",): [0.5, 0.5],
                                                         ("1",): vec})
        with pytest.raises(InvalidSpecError, match=r"'Y' \| \('1',\)"):
            spec.validate()

    @pytest.mark.parametrize("emitter", [
        EffectEmitter((0.0, 1.0), math.nan), EffectEmitter((0.0, 1.0), math.inf),
        EffectEmitter((math.nan, 1.0), 0.1), EffectEmitter((0.0, -math.inf), 0.1),
    ], ids=["nan-spread", "inf-spread", "nan-mean", "-inf-mean"])
    def test_validation_rejects_non_finite_emitter(self, emitter):
        spec = chain_spec()
        spec.emitters["Y"] = emitter
        with pytest.raises(InvalidSpecError, match="'Y'"):
            spec.validate()

    def test_document_round_trip_with_emitters(self):
        spec = paper_shaped_spec(n=3000, seed=11)
        again = parse_scm_spec(write_scm_spec(spec))
        assert again.emitters == spec.emitters
        data, data_again = generate(spec), generate(again)
        assert np.array_equal(data_again.codes, data.codes)
        assert data_again.continuous.keys() == data.continuous.keys()
        for node, values in data.continuous.items():
            assert np.array_equal(data_again.continuous[node], values)
        assert true_edges(again) == true_edges(spec)


class TestNdtri:
    """The NumPy inverse normal CDF that maps emitter uniforms to noise."""

    @staticmethod
    def grid():
        # branch boundaries at exp(-2), 1 - exp(-2) and exp(-32) (x = 8)
        edges = [1e-300, 1e-100, 1e-15, math.exp(-32), 1e-12, math.exp(-2),
                 0.5, 1 - math.exp(-2), 1 - 1e-12]
        near = [np.nextafter(e, d) for e in edges for d in (0.0, 1.0)]
        sample = np.random.default_rng(2024).random(10_000)
        return np.concatenate([edges, near, sample])

    def test_matches_statistics_inv_cdf(self):
        p = self.grid()
        expected = np.array([NormalDist().inv_cdf(float(q)) for q in p])
        np.testing.assert_allclose(synthetic._ndtri(p), expected,
                                   rtol=0, atol=1e-12)

    def test_symmetric(self):
        # 1 - q is exact for q >= 0.5, so (q, 1 - q) are true complements
        p = self.grid()
        q = np.maximum(p, 1 - p)
        q = q[q < 1]
        np.testing.assert_allclose(synthetic._ndtri(1 - q),
                                   -synthetic._ndtri(q), rtol=0, atol=1e-12)

    def test_within_4_ulp_of_scipy(self):
        special = pytest.importorskip("scipy.special")
        p = self.grid()
        expected = special.ndtri(p)
        ulps = np.abs(synthetic._ndtri(p) - expected) / np.spacing(
            np.abs(expected))
        assert ulps.max() <= 4


# --- refusals ---------------------------------------------------------------


def chain_text(**edit) -> str:
    """The copy-chain spec as a document, with ``edit``'s keys replaced
    (a value of None removes the key)."""
    doc = json.loads(write_scm_spec(copy_chain_spec(n=10)))
    doc.update(edit)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def chain_tables(**tables) -> dict:
    doc = json.loads(chain_text())["tables"]
    doc.update(tables)
    return doc


def with_table_of_x_for_y() -> ScmSpec:
    spec = copy_chain_spec(n=10)
    return ScmSpec(spec.graph, {"X": spec.tables["X"], "Y": spec.tables["X"]},
                   seed=0, n=10)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_scm_spec("[1]"), "an SCM spec must be a JSON object"),
    (lambda: parse_scm_spec(chain_text(tables=None)),
     "SCM spec missing 'tables'"),
    (lambda: parse_scm_spec(chain_text(
        tables={"X": chain_tables()["X"]})), "no table for node 'Y'"),
    (lambda: parse_scm_spec(chain_text(tables=chain_tables(
        Y={"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}))),
     "table for 'Y': no probabilities for config ('c',)"),
    (lambda: with_table_of_x_for_y().validate(),
     "table for 'Y' disagrees with graph parents"),
    (lambda: parse_scm_spec(chain_text(
        emitters={"Q": {"means": [0.0], "spread": 1.0}})),
     "emitter for unknown node 'Q'"),
    (lambda: parse_scm_spec(chain_text(
        emitters={"Y": {"means": [0.0, 1.0, 2.0], "spread": -1.0}})),
     "emitter for 'Y': spread < 0"),
    (lambda: parse_scm_spec(chain_text(n=-1)), "sample count -1 is negative"),
], ids=["non-object", "missing-key", "no-table", "missing-parent-config",
        "table-parents-disagree", "emitter-unknown-node", "negative-spread",
        "negative-n"])
def test_refusals(call, message):
    with pytest.raises(InvalidSpecError) as caught:
        call()
    assert str(caught.value) == message
