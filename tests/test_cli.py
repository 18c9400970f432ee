import hashlib
import json
import os
import random
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from asrcausal import causal, cli, ingest
from asrcausal.errors import IoError

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return cli.main(list(argv))


def make_records(n=150, with_gop=True, seed=5):
    rng = random.Random(seed)
    words = ["the", "cat", "sat", "dog", "ran", "we", "read", "books",
             "in", "morning", "fast", "big"]
    grades = list(ingest.GRADES)
    lines = []
    for i in range(n):
        ref_words = rng.sample(words, rng.randint(3, 6))
        hyp_a = [w for w in ref_words if rng.random() > 0.25] or [ref_words[0]]
        hyp_b = [w if rng.random() > 0.2 else rng.choice(words)
                 for w in ref_words]
        rec = {"id": f"u{i:03d}", "speaker_id": f"s{i % 5}",
               "reference": " ".join(ref_words),
               "hypotheses": {"w2v": " ".join(hyp_a),
                              "whisper": " ".join(hyp_b)},
               "grade": rng.choice(grades),
               "gender": rng.choice(["boy", "girl"]),
               "snr_db": round(rng.uniform(0, 30), 3)}
        if with_gop:
            rec["gop"] = round(-rng.uniform(0, 3), 4)
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


FREQ = "word,count\n" + "\n".join(
    f"{w},{c}" for w, c in [("the", 500), ("cat", 40), ("sat", 30),
                            ("dog", 50), ("ran", 20), ("we", 180),
                            ("read", 33), ("books", 21), ("in", 300),
                            ("morning", 22), ("fast", 25), ("big", 60)]) + "\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "records.jsonl").write_text(make_records())
    (tmp_path / "freq.csv").write_text(FREQ)
    return tmp_path


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("ace", "--treatment", "Age", "--effect", "SubsErr")
        assert err.value.code == 2

    def test_duplicate_graph_flag_exits_2(self, workdir):
        with pytest.raises(SystemExit) as err:
            run_cli("report", "--in", "x.json", "--graph", "paper-default",
                    "--graph", "fig3e", "--out", "y.json")
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("align", "--in", "a", "--out", "b", "--frobnicate")
        assert err.value.code == 2

    def test_bad_parallel_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("align", "--in", "a", "--out", "b", "--parallel", "0")
        assert err.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frob")
        assert err.value.code == 2


class TestSynth:
    def test_deterministic_across_runs_and_parallelism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli("synth", "--spec", "copy-chain", "--n", "500",
                       "--seed", "7", "--out", str(a)) == 0
        assert run_cli("synth", "--spec", "copy-chain", "--n", "500",
                       "--seed", "7", "--out", str(b), "--parallel", "8") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truths_cover_every_edge(self, tmp_path):
        out = tmp_path / "d.json"
        truths = tmp_path / "t.json"
        run_cli("synth", "--spec", "copy-chain", "--n", "10", "--seed", "1",
                "--out", str(out), "--truths", str(truths))
        doc = json.loads(truths.read_text())
        assert len(doc["edges"]) == 1
        assert doc["edges"][0]["cause"] == "X"

    def test_spec_file_round_trip(self, tmp_path):
        from asrcausal import synthetic
        spec_path = tmp_path / "scm.json"
        spec_path.write_text(synthetic.write_scm_spec(
            synthetic.copy_chain_spec(n=50, seed=3)))
        out = tmp_path / "d.json"
        assert run_cli("synth", "--spec", str(spec_path),
                       "--out", str(out)) == 0
        data = causal.DiscreteDataset.from_document(
            json.loads(out.read_text()))
        assert len(data) == 50

    def test_synth_and_report_bytes_pinned(self, tmp_path):
        data, truths, report = (tmp_path / name for name in
                                ("data.json", "truths.json", "report.json"))
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "2000",
                       "--seed", "1", "--truths", str(truths),
                       "--out", str(data)) == 0
        assert run_cli("report", "--in", f"fixture={data}",
                       "--out", str(report)) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (data, truths, report)}
        assert digests == {
            "data.json": "5b96014cdb5ddfa5ceaad5aa7dff10faa50138d8"
                         "65d025931540c0458155724b",
            "truths.json": "d99080f20f3eef49495f66d56890d291a63bd4ea"
                           "d9b5f73c6788469480479485",
            "report.json": "560eb7eeb98cd4692705f8048eff24469bff21ca"
                           "aed6013546b687eee225b766",
        }

    def test_spec_with_short_probability_vector_exits_1(self, tmp_path,
                                                         capsys):
        from asrcausal import synthetic
        doc = json.loads(synthetic.write_scm_spec(synthetic.copy_chain_spec()))
        doc["tables"]["X"][""] = [0.5, 0.5]  # X has three categories
        spec_path = tmp_path / "scm.json"
        spec_path.write_text(json.dumps(doc))
        assert run_cli("synth", "--spec", str(spec_path),
                       "--out", str(tmp_path / "d.json")) == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_INVALID_SPEC"


class TestMalformedDataset:
    @pytest.mark.parametrize("bad_row", [[0, 1], ["a", "b", "c"], [0.7, 0, 1]],
                             ids=["ragged", "string-codes", "float-code"])
    def test_malformed_rows_exit_1_without_traceback(self, tmp_path, bad_row):
        doc = {"variables": [{"name": v, "categories": ["lo", "hi"]}
                             for v in "ABC"],
               "rows": [[0, 1, 0], bad_row], "continuous": {}}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "asrcausal.cli", "cmi", "--in", "bad.json",
             "--x", "A", "--y", "B"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "E_SCHEMA"


class TestAlign:
    def test_scores_every_model(self, workdir):
        out = workdir / "scores.jsonl"
        assert run_cli("align", "--in", str(workdir / "records.jsonl"),
                       "--out", str(out)) == 0
        lines = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(lines) == 150
        assert set(lines[0]["scores"]) == {"w2v", "whisper"}
        assert {"substitutions", "deletions", "insertions", "ref_len",
                "wer"} <= set(lines[0]["scores"]["w2v"])

    def test_empty_reference_exits_1_naming_record(self, tmp_path, capsys):
        bad = {"id": "u-bad", "speaker_id": "s", "reference": "?!",
               "hypotheses": {"m": "a"}}
        src = tmp_path / "r.jsonl"
        src.write_text(json.dumps(bad) + "\n")
        code = run_cli("align", "--in", str(src),
                       "--out", str(tmp_path / "o.jsonl"))
        assert code == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_EMPTY_REF"
        assert diagnostic["record"] == "u-bad"

    def test_parallelism_does_not_change_bytes(self, workdir):
        a = workdir / "a.jsonl"
        b = workdir / "b.jsonl"
        run_cli("align", "--in", str(workdir / "records.jsonl"),
                "--out", str(a), "--parallel", "1")
        run_cli("align", "--in", str(workdir / "records.jsonl"),
                "--out", str(b), "--parallel", "8")
        assert a.read_bytes() == b.read_bytes()


class TestCovariates:
    def test_fills_word_count_and_difficulty(self, workdir):
        out = workdir / "cov.jsonl"
        assert run_cli("covariates", "--in", str(workdir / "records.jsonl"),
                       "--out", str(out),
                       "--freq-table", str(workdir / "freq.csv")) == 0
        with open(out) as fh:
            records = ingest.parse_utterances(fh)
        assert all(r.word_count is not None for r in records)
        assert all(r.vocab_difficulty is not None for r in records)
        # existing values are never overwritten
        assert all(r.snr_db is not None for r in records)

    def test_gop_from_posterior_files(self, tmp_path):
        rec = {"id": "u1", "speaker_id": "s", "reference": "hi",
               "hypotheses": {"m": "hi"}}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        inventory = {"p": ["p_s"], "q": ["q_s"]}
        (tmp_path / "inv.json").write_text(json.dumps(inventory))
        frames = [{"utterance_id": "u1", "t": t,
                   "probs": {"p_s": 0.2, "q_s": 0.8}} for t in range(2)]
        (tmp_path / "post.jsonl").write_text(
            "\n".join(json.dumps(f) for f in frames) + "\n")
        segs = [{"utterance_id": "u1", "phone": "p", "t_s": 0, "t_e": 2}]
        (tmp_path / "seg.jsonl").write_text(json.dumps(segs[0]) + "\n")
        out = tmp_path / "cov.jsonl"
        assert run_cli("covariates", "--in", str(tmp_path / "r.jsonl"),
                       "--out", str(out),
                       "--posteriors", str(tmp_path / "post.jsonl"),
                       "--segments", str(tmp_path / "seg.jsonl"),
                       "--inventory", str(tmp_path / "inv.json")) == 0
        with open(out) as fh:
            (record,) = ingest.parse_utterances(fh)
        assert record.gop == pytest.approx(np.log(0.25), abs=1e-9)

    def test_snr_from_wav(self, tmp_path):
        rec = {"id": "clip", "speaker_id": "s", "reference": "hi",
               "hypotheses": {"m": "hi"}}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        audio_dir = tmp_path / "audio"
        audio_dir.mkdir()
        pcm = (np.full(16000, 0.25) * 32767).astype("<i2")
        with wave.open(str(audio_dir / "clip.wav"), "wb") as out:
            out.setnchannels(1)
            out.setsampwidth(2)
            out.setframerate(16000)
            out.writeframes(pcm.tobytes())
        out_path = tmp_path / "cov.jsonl"
        assert run_cli("covariates", "--in", str(tmp_path / "r.jsonl"),
                       "--out", str(out_path),
                       "--audio-dir", str(audio_dir)) == 0
        with open(out_path) as fh:
            (record,) = ingest.parse_utterances(fh)
        assert record.snr_db == pytest.approx(0.0, abs=1e-9)


class TestPipeline:
    def assemble(self, workdir, model="whisper"):
        run_cli("align", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "scores.jsonl"))
        run_cli("covariates", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "cov.jsonl"),
                "--freq-table", str(workdir / "freq.csv"))
        return run_cli("discretize",
                       "--records", str(workdir / "cov.jsonl"),
                       "--scores", str(workdir / "scores.jsonl"),
                       "--model", model,
                       "--out", str(workdir / "dataset.json"),
                       "--schemes-out", str(workdir / "schemes.json"),
                       "--bin", "VocabDiff=quantile")

    def test_discretize_builds_nine_variable_dataset(self, workdir):
        assert self.assemble(workdir) == 0
        data = causal.DiscreteDataset.from_document(
            json.loads((workdir / "dataset.json").read_text()))
        assert set(data.variables) == {"Age", "Gender", "SNR", "VocabDiff",
                                       "NoWords", "GoP", "SubsErr", "DelErr",
                                       "InsErr"}
        assert set(data.continuous) == {"SubsErr", "DelErr", "InsErr"}
        schemes = json.loads((workdir / "schemes.json").read_text())
        assert schemes["GoP"]["method"] == "sigma"

    def test_missing_covariate_exits_1(self, tmp_path, capsys):
        (tmp_path / "records.jsonl").write_text(make_records(with_gop=False))
        code = run_cli("discretize",
                       "--records", str(tmp_path / "records.jsonl"),
                       "--out", str(tmp_path / "d.json"))
        assert code == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_SCHEMA"
        assert diagnostic["record"].startswith("u")

    def test_report_matches_library_chain(self, workdir):
        self.assemble(workdir)
        assert run_cli("report", "--in",
                       f"whisper={workdir / 'dataset.json'}",
                       "--graph", "paper-default",
                       "--on-empty", "skip",
                       "--out", str(workdir / "report.json")) == 0
        report = json.loads((workdir / "report.json").read_text())
        edges = report["models"]["whisper"]["edges"]
        assert len(edges) == 20
        data = causal.DiscreteDataset.from_document(
            json.loads((workdir / "dataset.json").read_text()))
        graph = causal.CausalGraph.builtin("paper-default")
        manual = causal.edge_report(graph, data, on_empty="skip")
        for got, want in zip(edges, manual):
            assert got["ace"] == pytest.approx(want["ace"], abs=5e-7)
            assert got["cmi"] == pytest.approx(want["cmi"], abs=5e-7)

    def test_oracle_and_correlate(self, workdir):
        run_cli("oracle", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "oracle.json"))
        doc = json.loads((workdir / "oracle.json").read_text())
        assert len(doc["choice"]) == 150
        oracle_wer = doc["aggregates"]["oracle"]["wer"]
        for model in ("w2v", "whisper"):
            assert oracle_wer <= doc["aggregates"][model]["wer"] + 1e-9
        run_cli("correlate", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "corr.csv"))
        lines = (workdir / "corr.csv").read_text().splitlines()
        assert lines[0] == "model,w2v,whisper"
        assert len(lines) == 3

    def test_fit_writes_cpts(self, workdir):
        self.assemble(workdir)
        assert run_cli("fit", "--in", str(workdir / "dataset.json"),
                       "--graph", "paper-default",
                       "--out", str(workdir / "cpts.json")) == 0
        doc = json.loads((workdir / "cpts.json").read_text())
        assert set(doc) == {"Age", "Gender", "SNR", "VocabDiff", "NoWords",
                            "GoP", "SubsErr", "DelErr", "InsErr"}
        assert doc["GoP"]["parents"] == ["Age", "VocabDiff"]

    def test_fit_rejects_category_beyond_graph(self, tmp_path, capsys):
        from asrcausal import synthetic
        doc = synthetic.generate(
            synthetic.paper_shaped_spec(n=20, seed=1)).to_document()
        gop = [v["name"] for v in doc["variables"]].index("GoP")
        doc["variables"][gop]["categories"].append("Extra")
        doc["rows"][0][gop] = 3
        (tmp_path / "d.json").write_text(json.dumps(doc))
        assert run_cli("fit", "--in", str(tmp_path / "d.json"),
                       "--out", str(tmp_path / "cpts.json")) == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_SCHEMA"

    def test_fit_bytes_with_unseen_config_and_zero_alpha(self, tmp_path):
        graph = {"nodes": [{"name": "X", "kind": "exogenous",
                            "categories": ["a", "b", "c"]},
                           {"name": "Y", "kind": "endogenous",
                            "categories": ["lo", "hi"]}],
                 "edges": [["X", "Y"]]}
        data = {"variables": [{"name": "X", "categories": ["a", "b", "c"]},
                              {"name": "Y", "categories": ["lo", "hi"]}],
                "rows": [[0, 0], [0, 1], [0, 1], [2, 0]], "continuous": {}}
        (tmp_path / "g.json").write_text(json.dumps(graph))
        (tmp_path / "d.json").write_text(json.dumps(data))
        assert run_cli("fit", "--in", str(tmp_path / "d.json"),
                       "--graph", str(tmp_path / "g.json"), "--alpha", "0",
                       "--out", str(tmp_path / "cpts.json")) == 0
        # X=b is never observed, so Y has no row for it
        assert (tmp_path / "cpts.json").read_text() == (
            '{\n "X": {\n  "alpha": 0.0,\n  "counts": {\n   "": [\n'
            '    3,\n    0,\n    1\n   ]\n  },\n  "parents": []\n },\n'
            ' "Y": {\n  "alpha": 0.0,\n  "counts": {\n   "a": [\n'
            '    1,\n    2\n   ],\n   "c": [\n    1,\n    0\n   ]\n'
            '  },\n  "parents": [\n   "X"\n  ]\n }\n}\n')

    def test_ace_and_cmi_to_stdout(self, workdir, capsys):
        self.assemble(workdir)
        assert run_cli("ace", "--in", str(workdir / "dataset.json"),
                       "--graph", "paper-default", "--treatment", "Gender",
                       "--effect", "SubsErr", "--on-empty", "skip") == 0
        ace_doc = json.loads(capsys.readouterr().out)
        assert ace_doc["lo"] == "boy" and ace_doc["hi"] == "girl"
        assert isinstance(ace_doc["ace"], float)
        assert run_cli("cmi", "--in", str(workdir / "dataset.json"),
                       "--graph", "paper-default", "--x", "Gender",
                       "--y", "SubsErr") == 0
        cmi_doc = json.loads(capsys.readouterr().out)
        assert cmi_doc["cmi"] >= 0.0
        assert set(cmi_doc["z"]) == {"Age", "SNR", "VocabDiff", "NoWords",
                                     "GoP"}

    def test_plot_dir_emits_tables(self, workdir):
        self.assemble(workdir)
        assert run_cli("report", "--in",
                       f"whisper={workdir / 'dataset.json'}",
                       "--records", str(workdir / "records.jsonl"),
                       "--scores", str(workdir / "scores.jsonl"),
                       "--on-empty", "skip",
                       "--out", str(workdir / "report.json"),
                       "--plot-dir", str(workdir / "plots")) == 0
        plots = {p.name for p in (workdir / "plots").iterdir()}
        assert "ace_table.csv" in plots
        assert "correlation.csv" in plots
        assert "edge_annotations_whisper.csv" in plots
        assert any(name.startswith("grade_errors_") for name in plots)


class TestCaching:
    def test_fresh_output_skips_then_force_recomputes(self, workdir, capsys):
        out = workdir / "scores.jsonl"
        run_cli("align", "--in", str(workdir / "records.jsonl"),
                "--out", str(out))
        first = out.stat().st_mtime_ns
        assert run_cli("align", "--in", str(workdir / "records.jsonl"),
                       "--out", str(out)) == 0
        assert "skipping" in capsys.readouterr().err
        assert out.stat().st_mtime_ns == first
        assert run_cli("align", "--in", str(workdir / "records.jsonl"),
                       "--out", str(out), "--force") == 0
        assert out.stat().st_mtime_ns >= first

    @pytest.mark.parametrize("stage", ["fit", "report"])
    def test_edited_graph_file_invalidates_output(self, tmp_path, capsys,
                                                  stage):
        graph = {"nodes": [{"name": "X", "kind": "exogenous",
                            "categories": ["a", "b"]},
                           {"name": "Y", "kind": "endogenous",
                            "categories": ["lo", "hi"]}],
                 "edges": [["X", "Y"]]}
        data = {"variables": [{"name": "X", "categories": ["a", "b"]},
                              {"name": "Y", "categories": ["lo", "hi"]}],
                "rows": [[0, 0], [0, 1], [1, 1], [1, 0]], "continuous": {}}
        g, d, out = tmp_path / "g.json", tmp_path / "d.json", tmp_path / "o"
        g.write_text(json.dumps(graph))
        d.write_text(json.dumps(data))
        argv = (stage, "--in", str(d), "--graph", str(g), "--out", str(out))
        assert run_cli(*argv) == 0
        assert run_cli(*argv) == 0
        assert "is fresh, skipping" in capsys.readouterr().err
        later = out.stat().st_mtime_ns + 10**9
        os.utime(g, ns=(later, later))
        assert run_cli(*argv) == 0
        assert "skipping" not in capsys.readouterr().err


class TestAtomicWrite:
    def test_failed_encoding_keeps_previous_output(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("previous\n")
        # a lone surrogate fails to encode after the file is opened
        with pytest.raises(UnicodeEncodeError):
            cli._write_text(str(out), "x" * 100_000 + "\ud800")
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_rename_keeps_previous_output(self, tmp_path,
                                                 monkeypatch):
        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        out = tmp_path / "out.json"
        out.write_text("previous\n")
        monkeypatch.setattr(cli.os, "replace", no_space)
        with pytest.raises(IoError):
            cli._write_text(str(out), "new\n")
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


PROBE = """
import json, sys
{body}
print(json.dumps([m for m in ("numpy", "scipy") if m in sys.modules]))
"""


def probe(body, cwd):
    """Run ``body`` in a fresh interpreter on the checkout's sources;
    return the numerical libraries it left loaded, and its stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1])), proc.stderr


class TestImports:
    def test_import_and_help_load_no_numerics(self, tmp_path):
        assert probe("import asrcausal.cli", tmp_path)[0] == set()
        help_body = ("from asrcausal import cli\n"
                     "try:\n    cli.main(['--help'])\n"
                     "except SystemExit:\n    pass")
        assert probe(help_body, tmp_path)[0] == set()

    def test_package_attribute_imports_submodule(self, tmp_path):
        loaded, _ = probe("import asrcausal\n"
                          "assert 'asrcausal.causal' not in sys.modules\n"
                          "asrcausal.causal.fit_cpts", tmp_path)
        assert "numpy" in loaded

    def test_fresh_skip_loads_no_numpy(self, tmp_path):
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "200",
                       "--out", str(tmp_path / "d.json")) == 0
        argv = ["fit", "--in", str(tmp_path / "d.json"),
                "--out", str(tmp_path / "cpts.json")]
        assert run_cli(*argv) == 0
        loaded, err = probe(f"from asrcausal import cli\ncli.main({argv!r})",
                            tmp_path)
        assert "is fresh, skipping" in err
        assert "numpy" not in loaded

    def test_scoring_stages_load_no_numpy(self, workdir):
        body = "from asrcausal import cli\n" + "\n".join(
            f"assert cli.main({argv!r}) == 0" for argv in (
                ["align", "--in", "records.jsonl", "--out", "scores.jsonl"],
                ["oracle", "--in", "records.jsonl", "--out", "oracle.json"],
                ["correlate", "--in", "records.jsonl", "--out", "c.csv"]))
        assert probe(body, workdir)[0] == set()
        assert (workdir / "c.csv").exists()

    def test_synth_loads_no_scipy(self, tmp_path):
        loaded, _ = probe("from asrcausal import cli\n"
                          "assert cli.main(['synth', '--spec', 'paper-shaped',"
                          " '--n', '500', '--out', 'd.json']) == 0", tmp_path)
        assert loaded == {"numpy"}
