"""Reference helpers the tests share: a dataset built from label rows,
brute-force joint enumeration, backdoor ACE read off CPTs, information
measures on explicit joint tables, and the SCM spec writer that
``synthetic.parse_scm_spec`` reads back.  None of them runs in a CLI
stage."""

from __future__ import annotations

import itertools
import json
from typing import Iterator, Mapping, Sequence

import numpy as np

from asrcausal.causal import (
    CausalGraph,
    ConditionalTable,
    DiscreteDataset,
    _ace_from_counts,
    _arms,
    _axes_as,
    _check_normalized,
    count_tensors,
    joint_tensor,
    marginal,
)
from asrcausal.errors import InvalidSpecError
from asrcausal.synthetic import _CFG_SEP, ScmSpec


def dataset_from_rows(categories: Mapping[str, Sequence[str]],
                      rows: Sequence[Mapping[str, str]],
                      continuous: Mapping[str, Sequence[float]] | None = None
                      ) -> DiscreteDataset:
    """The dataset whose row i holds the category labels ``rows[i]``."""
    variables = list(categories)
    codes = np.array([[list(categories[v]).index(row[v]) for v in variables]
                      for row in rows], dtype=np.int64)
    return DiscreteDataset(variables, categories,
                           codes.reshape(len(rows), len(variables)),
                           continuous)


def probability(table: ConditionalTable, value: str,
                assignment: Mapping[str, str]) -> float:
    """P(node = value | the parents' values in ``assignment``)."""
    config = tuple(assignment[p] for p in table.parents)
    return float(table.dist(config)[table.categories.index(value)])


def joint_probability(graph: CausalGraph,
                      cpts: Mapping[str, ConditionalTable],
                      assignment: Mapping[str, str]) -> float:
    """Probability of a full assignment under the DAG factorization."""
    missing = [n for n in graph.nodes if n not in assignment]
    if missing:
        raise ValueError(f"assignment lacks {missing}")
    p = 1.0
    for node in graph.nodes:
        p *= probability(cpts[node], assignment[node], assignment)
    return p


def backdoor_ace(graph: CausalGraph, tables: Mapping[str, ConditionalTable],
                 treatment: str, effect: str) -> float:
    """The backdoor ACE of ``treatment`` on the category index of
    ``effect`` under fitted or exact CPTs: ``causal``'s own formula on
    the (parents(treatment), treatment) marginals of the enumerated
    joint P and of P times the outcome, between the first and last
    treatment categories."""
    adjust = graph.parents(treatment)
    family = (*adjust, treatment)
    joint = joint_tensor(graph, tables)
    outcome = np.arange(len(graph.categories[effect]), dtype=np.float64)
    outcome = outcome.reshape([-1 if node == effect else 1
                               for node in graph.nodes])
    mass, moment = (_axes_as(graph, marginal(graph, table, family), family)
                    for table in (joint, joint * outcome))
    return _ace_from_counts(mass, moment, treatment, effect, adjust,
                            _arms(graph, treatment), "error")


def enumerate_assignments(graph: CausalGraph) -> Iterator[dict[str, str]]:
    names = graph.nodes
    for combo in itertools.product(*(graph.categories[n] for n in names)):
        yield dict(zip(names, combo))


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
    counts, _ = count_tensors(data, [x, y])
    flat = counts.ravel().astype(np.float64)
    flat += alpha
    return (flat / flat.sum()).reshape(counts.shape)


def write_scm_spec(spec: ScmSpec) -> str:
    spec.validate()
    tables_doc = {}
    for node, table in spec.tables.items():
        entries = {}
        for config in table.parent_configs():
            for label in config:
                if _CFG_SEP in label:
                    raise InvalidSpecError(
                        f"category label {label!r} contains {_CFG_SEP!r}")
            entries[_CFG_SEP.join(config)] = [float(p)
                                              for p in table.dist(config)]
        tables_doc[node] = entries
    doc = {
        "graph": spec.graph.to_document(),
        "seed": spec.seed,
        "n": spec.n,
        "tables": tables_doc,
        "emitters": {node: {"means": list(e.means), "spread": e.spread}
                     for node, e in sorted(spec.emitters.items())},
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
