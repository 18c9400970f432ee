"""Discrete Bayesian network over a declared DAG, plus the two
causal-strength measures: average causal effect under backdoor
adjustment, and conditional mutual information.

Every conditional table, fitted or exact, is one dense array shaped
``(|parent_1|, ..., |parent_m|, K)``: one axis per parent in
``graph.parents(node)`` order (node declaration order), sized by the
graph's category counts, then the node's own K categories.  The full
joint (``joint_tensor``) is the broadcast product of these arrays with
one axis per node in declaration order.

The network is fitted with additive (Laplace) smoothing; a parent
configuration never observed is uniform 1/K for every alpha, alpha=0
included, so the joint factorization always normalizes.  ACE adjusts on
the treatment's parents, which block every backdoor path in any DAG;
for exogenous treatments this reduces to a difference of conditional
means.  CMI is a plug-in estimate from the smoothed empirical
contingency table, clamped at zero from below.  All information
quantities are in nats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyStratumError,
    IncompleteAssignmentError,
    MissingVariableError,
    NotNormalizedError,
    SchemaError,
    StateExplosionError,
    UnknownLevelError,
)
from .ingest import GraphSpec, builtin_graph_spec

_NORM_TOL = 1e-9
_STATE_LIMIT = 10 ** 7


class CausalGraph:
    """Validated DAG with parent/children maps and a deterministic
    topological order (node-name tie-break)."""

    def __init__(self, spec: GraphSpec):
        from .ingest import topological_order

        spec.validate()
        self.spec = spec
        self.nodes: list[str] = spec.node_names()
        self.kinds = {n.name: n.kind for n in spec.nodes}
        self.categories: dict[str, tuple[str, ...]] = {
            n.name: tuple(n.categories) for n in spec.nodes}
        self.edges: list[tuple[str, str]] = list(spec.edges)
        self._parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst in self.edges:
            self._parents[dst].append(src)
            self._children[src].append(dst)
        # parent order follows node declaration order, so CPT parent
        # configurations are reproducible regardless of edge order
        declared = {name: i for i, name in enumerate(self.nodes)}
        for node in self.nodes:
            self._parents[node].sort(key=declared.__getitem__)
            self._children[node].sort(key=declared.__getitem__)
        self.topo_order: list[str] = topological_order(self.nodes, self.edges)

    @classmethod
    def from_spec(cls, spec: GraphSpec) -> "CausalGraph":
        return cls(spec)

    @classmethod
    def builtin(cls, name: str) -> "CausalGraph":
        return cls(builtin_graph_spec(name))

    def parents(self, node: str) -> list[str]:
        return list(self._parents[node])

    def children(self, node: str) -> list[str]:
        return list(self._children[node])

    def state_space(self) -> int:
        size = 1
        for node in self.nodes:
            size *= len(self.categories[node])
        return size


class DiscreteDataset:
    """Complete category assignments, optionally with continuous columns.

    Rows are stored as integer codes into each variable's declared
    category list; ``continuous`` carries per-row real outcomes (for this
    toolkit, per-utterance error rates in percent) keyed by column name.
    """

    def __init__(self, variables: Sequence[str],
                 categories: Mapping[str, Sequence[str]],
                 codes: np.ndarray,
                 continuous: Mapping[str, np.ndarray] | None = None):
        self.variables = list(variables)
        self.categories = {v: tuple(categories[v]) for v in self.variables}
        self.codes = np.asarray(codes, dtype=np.int64)
        if self.codes.ndim != 2 or self.codes.shape[1] != len(self.variables):
            raise SchemaError("codes must be an (n, #variables) array")
        for j, var in enumerate(self.variables):
            k = len(self.categories[var])
            col = self.codes[:, j]
            if col.size and (col.min() < 0 or col.max() >= k):
                raise SchemaError(f"variable {var!r}: code out of range")
        self.continuous = {k: np.asarray(v, dtype=np.float64)
                           for k, v in (continuous or {}).items()}
        for name, col in self.continuous.items():
            if col.shape != (len(self.codes),):
                raise SchemaError(f"continuous column {name!r}: wrong length")

    def __len__(self) -> int:
        return len(self.codes)

    def column(self, variable: str) -> np.ndarray:
        try:
            j = self.variables.index(variable)
        except ValueError:
            raise MissingVariableError(
                f"variable {variable!r} not in dataset") from None
        return self.codes[:, j]

    def labels(self, variable: str) -> list[str]:
        cats = self.categories[variable]
        return [cats[c] for c in self.column(variable)]

    @classmethod
    def from_rows(cls, categories: Mapping[str, Sequence[str]],
                  rows: Iterable[Mapping[str, str]],
                  continuous: Mapping[str, Sequence[float]] | None = None
                  ) -> "DiscreteDataset":
        variables = list(categories)
        index = {v: {c: i for i, c in enumerate(categories[v])}
                 for v in variables}
        coded = []
        for row_no, row in enumerate(rows):
            out = []
            for v in variables:
                if v not in row:
                    raise SchemaError(f"row {row_no}: missing {v!r}")
                try:
                    out.append(index[v][row[v]])
                except KeyError:
                    raise SchemaError(
                        f"row {row_no}: {row[v]!r} not a category of {v!r}"
                    ) from None
            coded.append(out)
        codes = np.array(coded, dtype=np.int64).reshape(len(coded), len(variables))
        cont = {k: np.asarray(v, dtype=np.float64)
                for k, v in (continuous or {}).items()}
        return cls(variables, categories, codes, cont)

    def to_document(self) -> dict:
        return {
            "variables": [{"name": v, "categories": list(self.categories[v])}
                          for v in self.variables],
            "rows": self.codes.tolist(),
            "continuous": {k: [float(x) for x in v]
                           for k, v in sorted(self.continuous.items())},
        }

    @classmethod
    def from_document(cls, doc: dict) -> "DiscreteDataset":
        try:
            variables = [v["name"] for v in doc["variables"]]
            categories = {v["name"]: list(v["categories"])
                          for v in doc["variables"]}
            rows = np.array(doc["rows"], dtype=np.int64)
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad dataset document: {exc}") from None
        if rows.size == 0:
            rows = rows.reshape(0, len(variables))
        continuous = {k: np.asarray(v, dtype=np.float64)
                      for k, v in doc.get("continuous", {}).items()}
        return cls(variables, categories, rows, continuous)


@dataclass
class ConditionalTable:
    """P(node | parents) as one dense array.

    ``probs`` has shape ``(|parent_1|, ..., |parent_m|, K)``: one axis
    per parent, in ``graph.parents(node)`` order and sized by the graph's
    category counts, then one axis over the node's K categories.  A
    fitted table keeps its integer ``counts`` of the same shape, and
    probabilities are (count + alpha) / (total + alpha * K); a parent
    configuration never observed is uniform 1/K for every alpha,
    alpha=0 included.  Exact tables (probabilities given, nothing
    fitted) leave ``counts`` as None.
    """

    node: str
    parents: tuple[str, ...]
    categories: tuple[str, ...]
    parent_categories: tuple[tuple[str, ...], ...]
    probs: np.ndarray
    counts: np.ndarray | None = None
    alpha: float = 1.0

    def dist(self, config: tuple[str, ...]) -> np.ndarray:
        """Probability vector over node categories for one parent config."""
        try:
            idx = tuple(cats.index(label) for cats, label
                        in zip(self.parent_categories, config))
        except ValueError:
            raise UnknownLevelError(
                f"{config} is not a parent configuration of {self.node!r}"
            ) from None
        return self.probs[idx]

    def prob(self, value: str, assignment: Mapping[str, str]) -> float:
        config = tuple(assignment[p] for p in self.parents)
        try:
            i = self.categories.index(value)
        except ValueError:
            raise UnknownLevelError(
                f"{value!r} not a category of {self.node!r}") from None
        return float(self.dist(config)[i])

    def parent_configs(self) -> Iterator[tuple[str, ...]]:
        yield from itertools.product(*self.parent_categories)

    def validate_normalized(self, tol: float = _NORM_TOL) -> "ConditionalTable":
        totals = self.probs.sum(axis=-1).ravel()
        bad = np.flatnonzero(np.abs(totals - 1.0) > tol)
        if bad.size:
            config = next(itertools.islice(self.parent_configs(), bad[0], None))
            raise NotNormalizedError(f"{self.node!r} | {config}: "
                                     f"probabilities sum to {totals[bad[0]]}")
        return self


def _config_index(data: DiscreteDataset, variables: Sequence[str]
                  ) -> tuple[np.ndarray, int]:
    """Mixed-radix row index over the given variables' codes, and the
    number of configurations (all rows 0 of 1 for no variables)."""
    idx = np.zeros(len(data), dtype=np.int64)
    total = 1
    for v in variables:
        k = len(data.categories[v])
        idx = idx * k + data.column(v)
        total *= k
    return idx, total


def fit_cpts(graph: CausalGraph, data: DiscreteDataset, alpha: float = 1.0
             ) -> dict[str, ConditionalTable]:
    """Maximum-likelihood counts with additive-alpha smoothing per node."""
    missing = [n for n in graph.nodes if n not in data.variables]
    if missing:
        raise MissingVariableError(f"dataset lacks variables {missing}")
    for node in graph.nodes:
        col = data.column(node)
        if col.size and col.max() >= len(graph.categories[node]):
            raise SchemaError(
                f"variable {node!r}: dataset code {int(col.max())} beyond "
                f"the graph's {len(graph.categories[node])} categories")
    tables = {}
    for node in graph.nodes:
        parents = tuple(graph.parents(node))
        shape = tuple(len(graph.categories[v]) for v in (*parents, node))
        flat = np.ravel_multi_index(
            [data.column(v) for v in (*parents, node)], shape)
        counts = np.bincount(flat, minlength=np.prod(shape)).reshape(shape)
        k = shape[-1]
        total = counts.sum(axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = np.where(total > 0, (counts + alpha) / (total + alpha * k),
                             1.0 / k)
        tables[node] = ConditionalTable(
            node, parents, graph.categories[node],
            tuple(graph.categories[p] for p in parents), probs,
            counts=counts, alpha=alpha)
    return tables


def joint_probability(graph: CausalGraph,
                      cpts: Mapping[str, ConditionalTable],
                      assignment: Mapping[str, str]) -> float:
    """Probability of a full assignment under the DAG factorization."""
    missing = [n for n in graph.nodes if n not in assignment]
    if missing:
        raise IncompleteAssignmentError(f"assignment lacks {missing}")
    p = 1.0
    for node in graph.nodes:
        p *= cpts[node].prob(assignment[node], assignment)
    return p


def enumerate_assignments(graph: CausalGraph) -> Iterator[dict[str, str]]:
    names = graph.nodes
    for combo in itertools.product(*(graph.categories[n] for n in names)):
        yield dict(zip(names, combo))


def joint_tensor(graph: CausalGraph, tables: Mapping[str, ConditionalTable],
                 do: Mapping[str, str] | None = None) -> np.ndarray:
    """Full joint distribution with one axis per node (declaration
    order), optionally under do-surgery that fixes some nodes' levels."""
    if graph.state_space() > _STATE_LIMIT:
        raise StateExplosionError(
            f"state space {graph.state_space()} exceeds {_STATE_LIMIT}")
    axis = {node: i for i, node in enumerate(graph.nodes)}
    shape = tuple(len(graph.categories[n]) for n in graph.nodes)
    joint = np.ones(shape)
    for node in graph.nodes:
        cats = graph.categories[node]
        if do is not None and node in do:
            if do[node] not in cats:
                raise UnknownLevelError(
                    f"{do[node]!r} is not a category of {node!r}")
            factor = np.zeros(len(cats))
            factor[cats.index(do[node])] = 1.0
            participating = (node,)
        else:
            table = tables[node]
            factor = table.probs
            participating = table.parents + (node,)
        # parents are already in declaration order; only the node's own
        # axis may need to move among them
        positions = [axis[v] for v in participating]
        factor = np.transpose(factor, np.argsort(positions))
        dims = [1] * len(shape)
        for v in participating:
            dims[axis[v]] = shape[axis[v]]
        joint = joint * factor.reshape(dims)
    return joint


def marginal(graph: CausalGraph, joint: np.ndarray, keep: Sequence[str]
             ) -> np.ndarray:
    """Sum a ``joint_tensor`` over every node not in ``keep``; the kept
    axes stay in declaration order."""
    return joint.sum(axis=tuple(i for i, node in enumerate(graph.nodes)
                                if node not in keep))


# --- information measures ----------------------------------------------------

def _check_normalized(p: np.ndarray):
    if np.any(p < 0):
        raise NotNormalizedError("negative probability")
    total = float(p.sum())
    if abs(total - 1.0) > _NORM_TOL:
        raise NotNormalizedError(f"probabilities sum to {total}")


def entropy(dist: Sequence[float]) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 := 0."""
    p = np.asarray(dist, dtype=np.float64).ravel()
    _check_normalized(p)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def conditional_entropy(joint: Sequence[Sequence[float]]) -> float:
    """H(X | Y) = -sum_{x,y} p(x,y) ln p(x|y) for a joint table p[x, y]."""
    p = np.asarray(joint, dtype=np.float64)
    _check_normalized(p)
    i, j = np.nonzero(p > 0)
    return float(-np.sum(p[i, j] * np.log(p[i, j] / p.sum(axis=0)[j])))


def mutual_information(joint: Sequence[Sequence[float]]) -> float:
    """I(X; Y) = sum p(x,y) ln [p(x,y) / (p(x) p(y))]; >= 0."""
    p = np.asarray(joint, dtype=np.float64)
    _check_normalized(p)
    i, j = np.nonzero(p > 0)
    out = np.sum(p[i, j] * np.log(p[i, j] / (p.sum(axis=1)[i]
                                            * p.sum(axis=0)[j])))
    return float(max(0.0, out))


def smoothed_joint(data: DiscreteDataset, x: str, y: str, alpha: float = 1.0
                   ) -> np.ndarray:
    """Alpha-smoothed empirical joint table over (x, y)."""
    kx = len(data.categories[x])
    ky = len(data.categories[y])
    flat = np.bincount(data.column(x) * ky + data.column(y),
                       minlength=kx * ky).astype(np.float64)
    flat += alpha
    return (flat / flat.sum()).reshape(kx, ky)


def conditional_mutual_information(data: DiscreteDataset, x: str, y: str,
                                   z: Sequence[str] = (),
                                   alpha: float = 1.0) -> float:
    """Plug-in I(X; Y | Z) from the alpha-smoothed contingency table.

    With an empty conditioning set this is exactly the mutual
    information of the smoothed empirical joint.  Clamped at zero from
    below, so smoothing noise never produces a negative dependence.
    """
    z = list(z)
    if x in z or y in z:
        raise MissingVariableError("x and y must not appear in z")
    for v in (x, y, *z):
        if v not in data.variables:
            raise MissingVariableError(f"variable {v!r} not in dataset")
    kx = len(data.categories[x])
    ky = len(data.categories[y])
    z_idx, kz = _config_index(data, z)
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


# --- average causal effect ----------------------------------------------------

def _default_levels(graph: CausalGraph, treatment: str,
                    lo: str | None, hi: str | None) -> tuple[str, str]:
    cats = graph.categories[treatment]
    lo = cats[0] if lo is None else lo
    hi = cats[-1] if hi is None else hi
    for level in (lo, hi):
        if level not in cats:
            raise UnknownLevelError(
                f"{level!r} is not a category of {treatment!r}")
    return lo, hi


def _outcome_vector(data: DiscreteDataset, effect: str) -> np.ndarray:
    """Per-row outcome: a continuous column when present, else the
    effect node's ordinal category index."""
    if effect in data.continuous:
        return data.continuous[effect]
    if effect in data.variables:
        return data.column(effect).astype(np.float64)
    raise MissingVariableError(f"effect {effect!r} not in dataset")


def ace(graph: CausalGraph, data_or_cpts, treatment: str, effect: str,
        level_lo: str | None = None, level_hi: str | None = None, *,
        normalized: bool = False, on_empty: str = "error") -> float:
    """Average causal effect E[Y | do(X=hi)] - E[Y | do(X=lo)].

    Backdoor adjustment over Z = parents(treatment):
    E[Y | do(x)] = sum_z E[Y | x, z] P(z).  Levels default to the first
    and last treatment category; ``normalized`` divides by (#levels - 1).

    From a dataset, strata statistics are empirical; a stratum missing
    one of the two treatment arms raises EmptyStratumError unless
    ``on_empty='skip'``, which drops it and renormalizes the stratum
    weights.  From fitted or exact CPTs, the adjustment formula is
    evaluated by exact enumeration (effect must then be a graph node).
    """
    if treatment not in graph.nodes:
        raise MissingVariableError(f"treatment {treatment!r} not in graph")
    lo, hi = _default_levels(graph, treatment, level_lo, level_hi)
    if isinstance(data_or_cpts, DiscreteDataset):
        value = _ace_from_data(graph, data_or_cpts, treatment, effect,
                               lo, hi, on_empty)
    else:
        value = _ace_from_cpts(graph, data_or_cpts, treatment, effect, lo, hi)
    if normalized:
        value /= _level_steps(graph, treatment)
    return value


def _level_steps(graph: CausalGraph, treatment: str) -> int:
    """Divisor of the per-level-normalized ACE: #levels - 1."""
    steps = len(graph.categories[treatment]) - 1
    if steps == 0:
        raise UnknownLevelError(
            f"{treatment!r} has one category; a normalized ACE needs two")
    return steps


def _ace_from_data(graph: CausalGraph, data: DiscreteDataset, treatment: str,
                   effect: str, lo: str, hi: str, on_empty: str) -> float:
    if treatment not in data.variables:
        raise MissingVariableError(f"treatment {treatment!r} not in dataset")
    y = _outcome_vector(data, effect)
    t_codes = data.column(treatment)
    cats = data.categories[treatment]
    try:
        code_lo, code_hi = cats.index(lo), cats.index(hi)
    except ValueError:
        raise UnknownLevelError(
            f"dataset categories for {treatment!r} lack {lo!r}/{hi!r}") from None
    adjust = graph.parents(treatment)
    z_idx, n_cfg = _config_index(data, adjust)

    z_counts = np.bincount(z_idx, minlength=n_cfg).astype(np.float64)
    diffs = np.zeros(n_cfg)
    usable = z_counts > 0
    for code, sign in ((code_hi, 1.0), (code_lo, -1.0)):
        mask = t_codes == code
        cell_n = np.bincount(z_idx[mask], minlength=n_cfg)
        cell_sum = np.bincount(z_idx[mask], weights=y[mask], minlength=n_cfg)
        empty = usable & (cell_n == 0)
        if np.any(empty):
            if on_empty == "skip":
                usable &= cell_n > 0
            else:
                level = hi if sign > 0 else lo
                raise EmptyStratumError(
                    f"no rows with {treatment}={level} in "
                    f"{int(empty.sum())} stratum/strata of {adjust}")
        with np.errstate(invalid="ignore"):
            means = np.where(cell_n > 0, cell_sum / np.maximum(cell_n, 1), 0.0)
        diffs += sign * means
    weight = z_counts * usable
    total = weight.sum()
    if total == 0:
        raise EmptyStratumError("no usable strata")
    return float(np.sum(diffs * weight) / total)


def _ace_from_cpts(graph: CausalGraph, cpts: Mapping[str, ConditionalTable],
                   treatment: str, effect: str, lo: str, hi: str) -> float:
    """Backdoor adjustment on marginals of the observational joint."""
    if effect not in graph.nodes:
        raise MissingVariableError(
            f"effect {effect!r} must be a graph node for CPT-based ACE")
    joint = joint_tensor(graph, cpts)
    adjust = graph.parents(treatment)
    keep = set(adjust) | {treatment}
    outcome = np.arange(len(graph.categories[effect]), dtype=np.float64)
    e_axis = graph.nodes.index(effect)
    outcome = outcome.reshape([-1 if a == e_axis else 1
                               for a in range(joint.ndim)])
    # P(z, x) and E[Y 1{z, x}]; kept axes stay in declaration order
    mass = marginal(graph, joint, keep)
    moment = marginal(graph, joint * outcome, keep)
    t_axis = [n for n in graph.nodes if n in keep].index(treatment)
    z_mass = mass.sum(axis=t_axis)
    arms = []
    for level in (hi, lo):
        i = graph.categories[treatment].index(level)
        arm_mass = np.take(mass, i, axis=t_axis)
        if np.any((z_mass > 0) & (arm_mass == 0)):
            raise EmptyStratumError(
                f"P({treatment}={level}, Z) = 0 in some stratum of {adjust}")
        arms.append(np.take(moment, i, axis=t_axis)
                    / np.where(z_mass > 0, arm_mass, 1.0))
    return float(np.sum(z_mass * (arms[0] - arms[1])))


def edge_report(graph: CausalGraph, data: DiscreteDataset,
                alpha: float = 1.0, *, on_empty: str = "error") -> list[dict]:
    """Per-edge causal strength: ACE (raw and per-level-normalized) and
    CMI conditioned on the effect's other parents.

    Edges are reported in declaration order; effect nodes with a
    continuous column of the same name use it as the ACE outcome
    (per-utterance error rates), everything else uses ordinal codes.
    """
    records = []
    for cause, effect in graph.edges:
        raw = ace(graph, data, cause, effect, on_empty=on_empty)
        levels = len(graph.categories[cause]) - 1
        others = [p for p in graph.parents(effect) if p != cause]
        cmi = conditional_mutual_information(data, cause, effect, others,
                                             alpha=alpha)
        records.append({
            "cause": cause,
            "effect": effect,
            "ace": raw,
            "ace_normalized": raw / levels if levels else 0.0,
            "cmi": cmi,
            "conditioning": others,
        })
    return records


def group_by_effect(records: Iterable[dict]) -> dict[str, list[dict]]:
    """Edge records keyed by effect node (tabular report layout)."""
    out: dict[str, list[dict]] = {}
    for record in records:
        out.setdefault(record["effect"], []).append(record)
    return out
