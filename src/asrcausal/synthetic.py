"""Synthetic structural causal models with exactly enumerable ground
truth, used to validate the ACE and CMI estimators at desk scale.

Ground truth comes from full enumeration of the (possibly mutilated)
joint distribution (``causal.joint_tensor``), never from sampling, so
acceptance tolerances carry no Monte Carlo error on the oracle side.

Sampling is ancestral in topological order from a documented, portable
generator: a Philox 4x64 counter-based bit generator keyed by the seed
produces one row of uniforms per sample (columns: nodes in topological
order, then continuous-effect emitters in sorted node order); each
categorical value is the inverse CDF of its conditional distribution at
the row's uniform, and emitter noise maps a uniform through the inverse
normal CDF.  Identical (spec, seed) therefore reproduces identical rows,
and rows could be sharded by index without changing output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .causal import (
    CausalGraph,
    ConditionalTable,
    DiscreteDataset,
    _arms,
    code_dtype,
    edge_records,
    entropy,
    joint_tensor,
    marginal,
)
from .errors import InvalidSpecError, NotNormalizedError
from .ingest import is_finite_number, load_json


@dataclass(frozen=True)
class EffectEmitter:
    """Continuous outcome attached to a categorical error node:
    value = means[category] + spread * standard normal noise."""

    means: tuple[float, ...]
    spread: float


@dataclass
class ScmSpec:
    """Fully specified discrete SCM: graph, exact tables, seed, size."""

    graph: CausalGraph
    tables: dict[str, ConditionalTable]
    seed: int
    n: int
    emitters: dict[str, EffectEmitter] = field(default_factory=dict)

    def validate(self) -> "ScmSpec":
        if self.n < 0:
            raise InvalidSpecError(f"sample count {self.n} is negative")
        if not 0 <= self.seed < 2 ** 128:
            raise InvalidSpecError(f"seed {self.seed} is not in [0, 2**128), "
                                   f"the range of a Philox key")
        for node in self.graph.nodes:
            if node not in self.tables:
                raise InvalidSpecError(f"no table for node {node!r}")
            table = self.tables[node]
            if tuple(table.parents) != tuple(self.graph.parents(node)):
                raise InvalidSpecError(
                    f"table for {node!r} disagrees with graph parents")
            try:
                table.validate_normalized()
            except NotNormalizedError as exc:
                raise InvalidSpecError(str(exc)) from None
        for node, emitter in self.emitters.items():
            if node not in self.graph.nodes:
                raise InvalidSpecError(f"emitter for unknown node {node!r}")
            if len(emitter.means) != len(self.graph.categories[node]):
                raise InvalidSpecError(
                    f"emitter for {node!r}: need one mean per category")
            if not all(map(math.isfinite, (*emitter.means, emitter.spread))):
                raise InvalidSpecError(f"emitter for {node!r}: means and "
                                       f"spread must be finite")
            if emitter.spread < 0:
                raise InvalidSpecError(f"emitter for {node!r}: spread < 0")
        return self


def exact_table(graph: CausalGraph, node: str,
                probs: Mapping[tuple[str, ...], Sequence[float]]
                ) -> ConditionalTable:
    """Build a ConditionalTable from explicitly given probabilities,
    one vector per parent configuration (a tuple of parent labels)."""
    parents = tuple(graph.parents(node))
    cats = graph.categories[node]
    parent_cats = tuple(graph.categories[p] for p in parents)
    dense = np.empty(tuple(len(c) for c in parent_cats) + (len(cats),))
    given = np.zeros(dense.shape[:-1], dtype=bool)
    for config, vec in probs.items():
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (len(cats),):
            raise InvalidSpecError(
                f"table for {node!r}, config {config}: {vec.size} "
                f"probabilities for {len(cats)} categories")
        if len(config) != len(parents) or any(
                label not in c for c, label in zip(parent_cats, config)):
            raise InvalidSpecError(
                f"table for {node!r}: {config} is not a configuration of "
                f"parents {parents}")
        idx = tuple(c.index(label) for c, label in zip(parent_cats, config))
        dense[idx] = vec
        given[idx] = True
    if not given.all():
        config = next(c for c, ok in zip(itertools.product(*parent_cats),
                                         given.ravel()) if not ok)
        raise InvalidSpecError(
            f"table for {node!r}: no probabilities for config {config}")
    return _dense_table(graph, node, dense)


# --- inverse normal CDF ------------------------------------------------------
# Cephes ndtri: a rational approximation in y - 0.5 on the central band
# exp(-2) < y < 1 - exp(-2), and in 1/x with x = sqrt(-2 log y) on the tails
# (one fit for x < 8, another beyond).  The coefficients and operation order
# follow the C source, so results agree with it to a few ulp; the emitter
# columns that ``generate`` writes depend on these bits.

_EXP_M2 = 0.13533528323661269189           # exp(-2)
_S2PI = 2.50662827463100050242             # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coefs: Sequence[float], monic: bool = False
            ) -> np.ndarray:
    """Polynomial with ``coefs`` highest degree first; ``monic`` prepends
    an implicit leading 1 (Cephes polevl / p1evl)."""
    acc = x + coefs[0] if monic else np.full_like(x, coefs[0])
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each entry of ``p``, all in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    # the central formula everywhere, then the tails overwritten by index:
    # cheaper than gathering and scattering the central band
    c = y - 0.5
    c2 = c * c
    out = (c + c * (c2 * _horner(c2, _P0)
                    / _horner(c2, _Q0, monic=True))) * _S2PI
    tail = np.flatnonzero(y <= _EXP_M2)
    x = np.sqrt(-2.0 * np.log(y[tail]))
    z = 1.0 / x
    x1 = z * _horner(z, _P1) / _horner(z, _Q1, monic=True)
    far = np.flatnonzero(x >= 8.0)
    x1[far] = z[far] * _horner(z[far], _P2) / _horner(z[far], _Q2, monic=True)
    t = x - np.log(x) / x - x1
    out[tail] = np.where(upper[tail], t, -t)
    return out


_BLOCK_ROWS = 1 << 13  # samples drawn and coded at a time


def generate(spec: ScmSpec) -> DiscreteDataset:
    """Ancestral sampling of ``spec.n`` rows; a pure function of the
    spec, its seed included.

    The uniforms are drawn ``_BLOCK_ROWS`` rows at a time: Philox fills
    sequentially, so the blocks are the rows of one (n, width) draw.
    Each node's codes go straight into the dataset's (n, #nodes) matrix,
    in its narrow ``code_dtype``, from which its children read their
    parent configurations."""
    spec.validate()
    graph = spec.graph
    n = spec.n
    emitter_nodes = sorted(spec.emitters)
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    width = len(graph.topo_order) + len(emitter_nodes)
    column = {node: j for j, node in enumerate(graph.nodes)}
    # per node in topological order: its column, its parents' columns,
    # the shape of its parent configurations, and its CDF columns (entry
    # i of each configuration's CDF, one array per i)
    plan = []
    for node in graph.topo_order:
        table = spec.tables[node]
        k = table.probs.shape[-1]
        cum = np.cumsum(table.probs, axis=-1).reshape(-1, k)
        plan.append((column[node], [column[p] for p in table.parents],
                     table.probs.shape[:-1], np.ascontiguousarray(cum.T)))

    codes = np.empty((n, len(graph.nodes)), dtype=code_dtype(
        len(cats) for cats in graph.categories.values()))
    continuous = {node: np.empty(n) for node in emitter_nodes}
    for start in range(0, n, _BLOCK_ROWS):
        u = rng.random((min(_BLOCK_ROWS, n - start), width))
        block = codes[start:start + len(u)]
        for j, (at, parents, shape, cdf) in enumerate(plan):
            # each sample's parent configuration, as an index into cdf[i]
            config = (np.ravel_multi_index(
                tuple(block[:, p] for p in parents), shape)
                if parents else 0)
            uj = u[:, j].copy()  # contiguous, for its k comparisons
            # a code counts the entries of its CDF row at or below its uniform
            count = np.zeros(len(u), dtype=np.int64)
            for entry in cdf:
                count += uj >= entry[config]
            block[:, at] = np.minimum(count, len(cdf) - 1)
        for m, node in enumerate(emitter_nodes):
            emitter = spec.emitters[node]
            noise = _ndtri(np.clip(u[:, len(graph.topo_order) + m],
                                   1e-12, 1 - 1e-12))
            means = np.asarray(emitter.means, dtype=np.float64)
            continuous[node][start:start + len(u)] = (
                means[block[:, column[node]]] + emitter.spread * noise)
    return DiscreteDataset(graph.nodes, graph.categories, codes, continuous)


# --- exact enumeration oracles -----------------------------------------------

def _outcome_values(spec: ScmSpec, effect: str) -> np.ndarray:
    """Expected outcome per effect category: emitter means when declared
    (noise is zero-mean), else the ordinal category index."""
    if effect in spec.emitters:
        return np.asarray(spec.emitters[effect].means, dtype=np.float64)
    return np.arange(len(spec.graph.categories[effect]), dtype=np.float64)


def _true_aces(spec: ScmSpec, treatment: str, effects: Sequence[str],
               level_lo: str | None = None, level_hi: str | None = None
               ) -> list[float]:
    """Exact ACE of ``treatment`` on each of ``effects``, enumerating the
    two mutilated models do(X=hi), do(X=lo) once for all of them."""
    graph = spec.graph
    arms = []
    for level, _ in _arms(graph, treatment, level_lo, level_hi):
        joint = joint_tensor(graph, spec.tables, do={treatment: level})
        arms.append([float(np.dot(marginal(graph, joint, [effect]),
                                  _outcome_values(spec, effect)))
                     for effect in effects])
    return [high - low for high, low in zip(*arms)]


def true_ace(spec: ScmSpec, treatment: str, effect: str,
             level_lo: str | None = None, level_hi: str | None = None
             ) -> float:
    """Exact ACE by enumerating the two mutilated models do(X=hi), do(X=lo)."""
    return _true_aces(spec, treatment, [effect], level_lo, level_hi)[0]


def _cmi_of_joint(graph: CausalGraph, joint: np.ndarray, x: str, y: str,
                  z: Sequence[str]) -> float:
    z = list(z)
    h_xz = entropy(marginal(graph, joint, [x] + z))
    h_yz = entropy(marginal(graph, joint, [y] + z))
    h_z = entropy(marginal(graph, joint, z)) if z else 0.0
    h_xyz = entropy(marginal(graph, joint, [x, y] + z))
    value = h_xz + h_yz - h_z - h_xyz
    if abs(value) < 1e-12:
        return 0.0
    return max(0.0, value)


def true_cmi(spec: ScmSpec, x: str, y: str, z: Sequence[str] = ()) -> float:
    """Exact I(X; Y | Z) from the enumerated joint distribution.

    Computed through the entropy identity
    I = H(X,Z) + H(Y,Z) - H(Z) - H(X,Y,Z); exactly zero (after clearing
    enumeration round-off below 1e-12) for d-separated triples.
    """
    return _cmi_of_joint(spec.graph, joint_tensor(spec.graph, spec.tables),
                         x, y, z)


def true_edges(spec: ScmSpec) -> list[dict]:
    """Every edge's exact record (``causal.edge_records``), equal to
    ``true_ace`` and ``true_cmi`` bit for bit.  Each joint is enumerated
    once: the observational one for every CMI, and each cause's two
    mutilated ones for the ACEs of all its edges."""
    graph = spec.graph
    aces = {}
    for cause in dict.fromkeys(cause for cause, _ in graph.edges):
        effects = graph.children(cause)
        aces.update(zip([(cause, e) for e in effects],
                        _true_aces(spec, cause, effects)))
    joint = joint_tensor(graph, spec.tables)
    return edge_records(graph, lambda cause, effect: aces[cause, effect],
                        lambda cause, effect, others:
                        _cmi_of_joint(graph, joint, cause, effect, others))


# --- built-in fixtures ---------------------------------------------------------

def _softmax_levels(eta: np.ndarray, k: int, floor: float) -> np.ndarray:
    """P(level j) proportional to exp(j * eta), on a new last axis of k
    levels, floored and renormalized so every level keeps sampleable
    mass.  ``math.exp`` (which ``np.exp`` can miss by an ulp) and sums
    over the levels in order keep the bits of a per-entry Python loop."""
    raw = eta[..., None] * np.arange(k)
    raw = np.array([math.exp(x) for x in raw.ravel()]).reshape(raw.shape)
    probs = np.maximum(raw / sum(np.moveaxis(raw, -1, 0))[..., None], floor)
    return probs / sum(np.moveaxis(probs, -1, 0))[..., None]


def _dense_table(graph: CausalGraph, node: str, probs) -> ConditionalTable:
    parents = tuple(graph.parents(node))
    return ConditionalTable(node, parents, graph.categories[node],
                            tuple(graph.categories[p] for p in parents),
                            np.asarray(probs, dtype=np.float64))


# Declared effect coefficients of the nine-node fixture, one row per
# error node: (intercept, age, girl, vocab, gop, snr, words).
_ERROR_COEFFS = {
    "SubsErr": (-0.20, -0.45, 0.06, 0.35, -0.30, -0.25, -0.60),
    "DelErr": (-0.80, -0.10, 0.03, 0.10, -0.08, 0.06, 0.10),
    "InsErr": (-0.40, -0.35, 0.08, 0.15, -0.15, -0.20, -0.45),
}

_EMITTERS = {
    "SubsErr": EffectEmitter((0.05, 0.18, 0.40), 0.02),
    "DelErr": EffectEmitter((0.01, 0.04, 0.10), 0.01),
    "InsErr": EffectEmitter((0.03, 0.12, 0.30), 0.02),
}


def paper_shaped_spec(n: int = 200_000, seed: int = 1732) -> ScmSpec:
    """Nine-node fixture shaped like the default analysis graph.

    Eleven age levels, three-category covariates, the full twenty-edge
    rule set, and continuous error emitters in rate units.  Small enough
    (48,114 joint states) for exact enumeration.  Each table's logits
    are one array over its parents' axes.
    """
    graph = CausalGraph.builtin("paper-default")
    tables = {node: _dense_table(graph, node, probs) for node, probs in (
        ("Age", [1 / 11] * 11), ("Gender", [0.52, 0.48]),
        ("SNR", [0.25, 0.50, 0.25]), ("VocabDiff", [0.30, 0.45, 0.25]),
        ("NoWords", [0.35, 0.40, 0.25]))}

    def axes(node):
        # each parent's category index along its own axis of the node's
        # table; every logit below reads all of them, so it fills the table
        parents = graph.parents(node)
        return {p: np.arange(len(graph.categories[p])).reshape(
            [-1 if q == p else 1 for q in parents]) for p in parents}

    at = axes("GoP")
    eta = 0.35 * (at["Age"] - 5) / 3 - 0.55 * (at["VocabDiff"] - 1)
    tables["GoP"] = _dense_table(graph, "GoP", _softmax_levels(eta, 3, 0.06))
    for err, (c0, c_age, c_girl, c_vocab, c_gop, c_snr, c_words) in \
            _ERROR_COEFFS.items():
        at = axes(err)
        eta = (c0
               + c_age * (at["Age"] - 5) / 3
               + c_girl * at["Gender"]
               + c_vocab * (at["VocabDiff"] - 1)
               + c_gop * (at["GoP"] - 1)
               + c_snr * (at["SNR"] - 1)
               + c_words * (at["NoWords"] - 1))
        tables[err] = _dense_table(graph, err, _softmax_levels(eta, 3, 0.02))
    return ScmSpec(graph, tables, seed=seed, n=n,
                   emitters=dict(_EMITTERS)).validate()


def copy_chain_spec(n: int = 200_000, seed: int = 97) -> ScmSpec:
    """Two-node fixture where Y deterministically copies X, so
    I(X; Y) equals H(X) exactly."""
    graph = CausalGraph([("X", "exogenous", ("a", "b", "c")),
                         ("Y", "endogenous", ("a", "b", "c"))],
                        [("X", "Y")])
    tables = {
        "X": exact_table(graph, "X", {(): [0.2, 0.5, 0.3]}),
        "Y": exact_table(graph, "Y", {("a",): [1.0, 0.0, 0.0],
                                      ("b",): [0.0, 1.0, 0.0],
                                      ("c",): [0.0, 0.0, 1.0]}),
    }
    return ScmSpec(graph, tables, seed=seed, n=n).validate()


_BUILTIN_SPECS = {"paper-shaped": paper_shaped_spec,
                  "copy-chain": copy_chain_spec}


def builtin_scm_spec(name: str) -> ScmSpec:
    if name not in _BUILTIN_SPECS:
        raise InvalidSpecError(f"no builtin SCM named {name!r}; "
                               f"choices: {sorted(_BUILTIN_SPECS)}")
    return _BUILTIN_SPECS[name]()


# --- document form --------------------------------------------------------------

_CFG_SEP = "|"


def parse_scm_spec(text: str) -> ScmSpec:
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise InvalidSpecError("an SCM spec must be a JSON object")
    for key in ("graph", "seed", "n", "tables"):
        if key not in doc:
            raise InvalidSpecError(f"SCM spec missing {key!r}")
    for key in ("seed", "n"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise InvalidSpecError(f"SCM spec {key!r} must be an integer")
    for key in ("tables", "emitters"):
        if not isinstance(doc.get(key, {}), dict):
            raise InvalidSpecError(f"SCM spec {key!r} must be an object")
    graph = CausalGraph.from_document(doc["graph"])
    tables = {}
    for node in graph.nodes:
        if node not in doc["tables"]:
            raise InvalidSpecError(f"no table for node {node!r}")
        entries = doc["tables"][node]
        if not isinstance(entries, dict):
            raise InvalidSpecError(f"table for {node!r} must be an object")
        probs = {}
        for key, vec in entries.items():
            if not _numbers(vec):
                raise InvalidSpecError(f"table for {node!r}, config "
                                       f"{key!r}: probabilities must be a "
                                       f"list of finite numbers")
            config = tuple(key.split(_CFG_SEP)) if key else ()
            probs[config] = vec
        tables[node] = exact_table(graph, node, probs)
    emitters = {}
    for node, entry in doc.get("emitters", {}).items():
        if not (isinstance(entry, dict) and _numbers(entry.get("means"))
                and is_finite_number(entry.get("spread"))):
            raise InvalidSpecError(f"emitter for {node!r} needs a list of "
                                   f"finite numbers 'means' and a finite "
                                   f"number 'spread'")
        emitters[node] = EffectEmitter(tuple(entry["means"]),
                                       float(entry["spread"]))
    return ScmSpec(graph, tables, seed=doc["seed"], n=doc["n"],
                   emitters=emitters).validate()


def _numbers(value) -> bool:
    return isinstance(value, list) and all(map(is_finite_number, value))
