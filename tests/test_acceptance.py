"""Acceptance suite: every criterion at its stated tolerance, one
PASS/FAIL line each (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from asrcausal import causal, cli, discretize, synthetic
from asrcausal.alignment import align, score_table
from asrcausal.covariates import (PhoneSegment, UtterancePosteriors,
                                  gop_utterance)
from asrcausal.ingest import UtteranceRecord

from support import (conditional_entropy, enumerate_assignments,
                     joint_probability, mutual_information)
from test_alignment import oracle_align


def check(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_alignment_oracle_equivalence():
    rng = random.Random(20240401)
    vocab = ["a", "b", "c", "d", "e"]
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        result = align(ref, hyp)
        got = (result.substitutions, result.deletions, result.insertions)
        if got != oracle_align(ref, hyp):
            mismatches += 1
    elapsed = time.perf_counter() - start
    check("1 alignment equals exhaustive DP oracle on 1000 pairs",
          mismatches == 0 and elapsed < 5.0,
          f"mismatches={mismatches}, {elapsed:.2f}s < 5s")


def test_criterion_02_oracle_selection_dominance():
    rng = random.Random(77)
    vocab = ["a", "b", "c", "d", "e"]
    violations = 0
    for _ in range(100):
        records = []
        for i in range(rng.randint(3, 12)):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
            hyps = {}
            for model in ("m1", "m2", "m3", "m4"):
                hyps[model] = " ".join(
                    rng.choice(vocab) if rng.random() < 0.35 else w
                    for w in ref) or ref[0]
            records.append(UtteranceRecord(
                id=f"u{i}", speaker_id="s", reference=" ".join(ref),
                hypotheses=hyps))
        oracle_wer = score_table(records).oracle_aggregate().wer
        best = min(score_table(records, (m,)).aggregate(m)[0].wer
                   for m in ("m1", "m2", "m3", "m4"))
        if oracle_wer > best:
            violations += 1
    check("2 oracle aggregate WER <= per-model minimum on 100 fixtures",
          violations == 0, f"violations={violations}")


def test_criterion_03_information_identities():
    rng = np.random.default_rng(314)
    worst = 0.0
    ok = True
    for _ in range(100):
        joint = rng.random((4, 4))
        joint /= joint.sum()
        mi = mutual_information(joint)
        identity = causal.entropy(joint.sum(axis=1)) \
            - conditional_entropy(joint)
        worst = max(worst, abs(mi - identity))
        ok = ok and mi >= 0.0 and abs(mi - identity) < 1e-9
    check("3 |I - (H(X) - H(X|Y))| < 1e-9 and I >= 0 on 100 joints",
          ok, f"max gap={worst:.2e}")


def test_criterion_04_gop_sign_property():
    rng = np.random.default_rng(2718)
    inventory = {f"r{i}": [f"r{i}_s"] for i in range(5)}
    phones = sorted(inventory)
    states = [f"{p}_s" for p in phones]
    sign_ok = equality_ok = True
    for _ in range(10_000):
        n_frames = int(rng.integers(1, 5))
        mat = rng.random((n_frames, 5))
        mat /= mat.sum(axis=1, keepdims=True)
        frames = UtterancePosteriors(tuple(states), range(n_frames), mat)
        target = int(rng.integers(0, 5))
        segment = PhoneSegment(phones[target], 0, n_frames, inventory)
        score = gop_utterance([segment], frames).utterance
        sign_ok = sign_ok and score <= 1e-12
        is_argmax = int(np.argmax(np.log(mat).mean(axis=0))) == target
        equality_ok = equality_ok and ((abs(score) < 1e-12) == is_argmax)
    worked = two_phone_gop(0.2)
    example_ok = abs(worked - math.log(0.25)) < 1e-9
    check("4 GOP <= 0 on 10k matrices; zero iff argmax; ln 0.25 example",
          sign_ok and equality_ok and example_ok,
          f"worked example={worked:.9f}")


def two_phone_gop(p_target: float) -> float:
    inventory = {"p": ["p_s"], "q": ["q_s"]}
    frames = UtterancePosteriors(("p_s", "q_s"), range(2),
                                 np.array([[p_target, 1 - p_target]] * 2))
    return gop_utterance([PhoneSegment("p", 0, 2, inventory)],
                         frames).utterance


@pytest.fixture(scope="module")
def fixture_scm():
    spec = synthetic.paper_shaped_spec(n=200_000)
    start = time.perf_counter()
    data = synthetic.generate(spec)
    return spec, data, time.perf_counter() - start


def test_criterion_05_ace_recovery(fixture_scm):
    spec, data, gen_time = fixture_scm
    graph = spec.graph
    assert graph.parents("GoP") == ["Age", "VocabDiff"]
    start = time.perf_counter()
    worst_exo = worst_conf = 0.0
    for cause, effect in graph.edges:
        truth = synthetic.true_ace(spec, cause, effect)
        estimate = causal.ace(graph, data, cause, effect)
        gap = abs(estimate - truth)
        if cause == "GoP":
            worst_conf = max(worst_conf, gap)
        else:
            worst_exo = max(worst_exo, gap)
    elapsed = gen_time + time.perf_counter() - start
    check("5 ACE recovery at n=200k: exogenous <= 0.01, confounded <= 0.02",
          worst_exo <= 0.01 and worst_conf <= 0.02 and elapsed < 10.0,
          f"exo={worst_exo:.4f}, confounded={worst_conf:.4f}, "
          f"{elapsed:.2f}s < 10s")


def test_criterion_06_cmi_null_and_signal(fixture_scm):
    spec, data, _ = fixture_scm
    null_pairs = [("Age", "Gender", []), ("Age", "SNR", []),
                  ("Gender", "NoWords", []), ("SNR", "VocabDiff", []),
                  ("Age", "SNR", ["Gender"])]
    worst_null = 0.0
    for x, y, z in null_pairs:
        assert synthetic.true_cmi(spec, x, y, z) == 0.0
        worst_null = max(worst_null, causal.conditional_mutual_information(
            data, x, y, z, alpha=1.0))
    copy_spec = synthetic.copy_chain_spec(n=200_000)
    copy_data = synthetic.generate(copy_spec)
    truth = synthetic.true_cmi(copy_spec, "X", "Y")
    estimate = causal.conditional_mutual_information(copy_data, "X", "Y")
    check("6 CMI null <= 0.01 nats; copy edge within 0.02 of truth",
          worst_null <= 0.01 and abs(estimate - truth) <= 0.02,
          f"null={worst_null:.4f}, copy gap={abs(estimate - truth):.4f}")


def test_criterion_07_sigma_binning_calibration():
    rng = np.random.default_rng(55)
    values = rng.standard_normal(100_000)
    scheme = discretize.fit_sigma_bins(values)
    labels = [scheme.labels[i]
              for i in discretize.apply_bins_array(scheme, values)]
    mass = labels.count("Average") / len(labels)
    check("7 sigma binning: Average mass 0.6827 +/- 0.01 on 100k draws",
          abs(mass - 0.6827) <= 0.01, f"mass={mass:.4f}")


def test_criterion_08_kde_binning():
    rng = np.random.default_rng(66)
    mixture = np.concatenate([rng.normal(-3, 0.5, 5000),
                              rng.normal(3, 0.5, 5000)])
    scheme = discretize.fit_kde_bins(mixture, bins=2)
    boundary_ok = scheme.method == "kde" and len(scheme.boundaries) == 1 \
        and abs(scheme.boundaries[0]) <= 0.3
    unimodal = rng.standard_normal(10_000)
    fallback = discretize.fit_kde_bins(unimodal, bins=3)
    counts = Counter(fallback.labels[i]
                     for i in discretize.apply_bins_array(fallback, unimodal))
    tertiles_ok = fallback.method == "quantile" and all(
        abs(counts[label] - len(unimodal) / 3) <= 1
        for label in fallback.labels)
    check("8 KDE boundary within +/-0.3 of 0; unimodal fallback tertiles",
          boundary_ok and tertiles_ok,
          f"boundary={scheme.boundaries[0]:.3f}, "
          f"tertiles={sorted(counts.values())}")


def test_criterion_09_factorization_normalization():
    spec = synthetic.paper_shaped_spec(n=5000, seed=4)
    data = synthetic.generate(spec)
    graph = spec.graph
    cpts = causal.fit_cpts(graph, data, alpha=1.0)
    total = sum(joint_probability(graph, cpts, assignment)
                for assignment in enumerate_assignments(graph))
    check("9 fitted joint factorization sums to 1 +/- 1e-9",
          abs(total - 1.0) <= 1e-9, f"sum={total!r}")


def test_criterion_10_end_to_end_determinism(tmp_path):
    outputs = []
    for name in ("run1", "run2"):
        base = tmp_path / name
        base.mkdir()
        data = base / "data.json"
        report = base / "report.json"
        assert cli.main(["synth", "--spec", "paper-shaped", "--n", "3000",
                         "--seed", "99", "--out", str(data)]) == 0
        assert cli.main(["report", "--in", f"fixture={data}",
                         "--graph", "paper-default",
                         "--out", str(report)]) == 0
        outputs.append((data.read_bytes(), report.read_bytes()))
    check("10 synth -> report byte-identical across runs",
          outputs[0] == outputs[1],
          f"dataset {len(outputs[0][0])} bytes, "
          f"report {len(outputs[0][1])} bytes")
