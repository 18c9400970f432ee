import errno
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

from asrcausal import causal, cli, ingest
from asrcausal.errors import IoError

from support import write_scm_spec

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
        # every stage runs serially: there is no worker-pool flag
        with pytest.raises(SystemExit) as err:
            run_cli("align", "--in", "a", "--out", "b", "--parallel", "2")
        assert err.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frob")
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        *[(("covariates", "--in", "r.jsonl", "--out", "c.jsonl",
            "--sample-rate", rate), "--sample-rate")
          for rate in ("0", "-16000")],
        *[((*argv, f"--alpha={alpha}"), "--alpha")
          for argv in (("fit", "--in", "d.json", "--out", "c.json"),
                       ("cmi", "--in", "d.json", "--x", "Age",
                        "--y", "SubsErr"),
                       ("report", "--in", "d.json", "--out", "r.json"))
          for alpha in ("-1", "nan", "inf", "-inf")],
    ], ids=[*(f"sample-rate={rate}" for rate in ("0", "-16000")),
            *(f"{command}-alpha={alpha}"
              for command in ("fit", "cmi", "report")
              for alpha in ("-1", "nan", "inf", "-inf"))])
    def test_out_of_range_number_exits_2_naming_the_flag(self, capsys,
                                                         argv, flag):
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err


class TestSynth:
    def test_deterministic_across_runs_and_parallelism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli("synth", "--spec", "copy-chain", "--n", "500",
                       "--seed", "7", "--out", str(a)) == 0
        assert run_cli("synth", "--spec", "copy-chain", "--n", "500",
                       "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truths_cover_every_edge(self, tmp_path):
        out = tmp_path / "d.json"
        truths = tmp_path / "t.json"
        run_cli("synth", "--spec", "copy-chain", "--n", "10", "--seed", "1",
                "--out", str(out), "--truths", str(truths))
        doc = json.loads(truths.read_text())
        assert len(doc["edges"]) == 1
        assert doc["edges"][0]["cause"] == "X"

    def test_truths_enumerate_each_joint_once(self, tmp_path, monkeypatch):
        # paper-shaped: the observational joint, then do(hi) and do(lo)
        # for each of the six causes
        from asrcausal import synthetic
        calls = []
        joint_tensor = synthetic.joint_tensor

        def counted(*args, **kwargs):
            calls.append(kwargs.get("do"))
            return joint_tensor(*args, **kwargs)

        monkeypatch.setattr(synthetic, "joint_tensor", counted)
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "300",
                       "--out", str(tmp_path / "d.json"),
                       "--truths", str(tmp_path / "t.json")) == 0
        assert len(calls) == 13
        assert len({json.dumps(do, sort_keys=True) for do in calls}) == 13

    def test_ace_and_cmi_commands_match_the_report(self, tmp_path, capsys):
        data, report = tmp_path / "data.json", tmp_path / "report.json"
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "2000",
                       "--seed", "7", "--out", str(data)) == 0
        assert run_cli("report", "--in", f"fixture={data}",
                       "--out", str(report)) == 0
        (record,) = [r for r in json.loads(report.read_text())["models"]
                     ["fixture"]["edges"]
                     if (r["cause"], r["effect"]) == ("Age", "SubsErr")]
        capsys.readouterr()
        assert run_cli("ace", "--in", str(data), "--treatment", "Age",
                       "--effect", "SubsErr") == 0
        ace_doc = json.loads(capsys.readouterr().out)
        assert run_cli("cmi", "--in", str(data), "--graph", "paper-default",
                       "--x", "Age", "--y", "SubsErr") == 0
        cmi_doc = json.loads(capsys.readouterr().out)
        assert cmi_doc["z"] == record["conditioning"]
        for doc, key in ((ace_doc, "ace"), (ace_doc, "ace_normalized"),
                         (cmi_doc, "cmi")):
            assert doc[key] == pytest.approx(record[key], abs=1e-6), key

    def test_spec_file_round_trip(self, tmp_path):
        from asrcausal import synthetic
        spec_path = tmp_path / "scm.json"
        spec_path.write_text(write_scm_spec(
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
        doc = json.loads(write_scm_spec(synthetic.copy_chain_spec()))
        doc["tables"]["X"][""] = [0.5, 0.5]  # X has three categories
        spec_path = tmp_path / "scm.json"
        spec_path.write_text(json.dumps(doc))
        assert run_cli("synth", "--spec", str(spec_path),
                       "--out", str(tmp_path / "d.json")) == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_INVALID_SPEC"


    @pytest.mark.parametrize("edit", [
        {"tables": [1]},
        {"tables": {"X": [1]}},
        {"table": ("X", ["a", "b", "c"])},
        {"table": ("Y", [True, False, False])},
        {"emitters": {"Y": {"spread": 1.0}}},
        {"emitters": {"Y": {"means": [1.0, 2.0, 3.0], "spread": "x"}}},
        {"emitters": [1]},
        {"seed": "7"},
        {"seed": 1.5},
        {"n": "a"},
        {"n": True},
    ], ids=["tables-list", "table-list", "string-probs", "bool-probs",
            "emitter-no-means", "emitter-string-spread", "emitters-list",
            "string-seed", "float-seed", "string-n", "bool-n"])
    def test_mistyped_spec_is_e_invalid_spec(self, tmp_path, capsys, edit):
        from asrcausal import synthetic
        doc = json.loads(write_scm_spec(synthetic.copy_chain_spec()))
        if "table" in edit:
            node, vec = edit.pop("table")
            key = next(iter(doc["tables"][node]))
            doc["tables"][node][key] = vec
        doc.update(edit)
        spec_path = tmp_path / "scm.json"
        spec_path.write_text(json.dumps(doc))
        assert run_cli("synth", "--spec", str(spec_path), "--n", "20",
                       "--out", str(tmp_path / "d.json")) == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_INVALID_SPEC"

    @pytest.mark.parametrize("source, seed", [
        ("flag", -1), ("flag", 2 ** 128), ("spec", -3), ("spec", 2 ** 128)])
    def test_seed_outside_the_philox_key_range_is_e_invalid_spec(
            self, tmp_path, capsys, source, seed):
        from asrcausal import synthetic
        if source == "flag":
            argv = ["--spec", "copy-chain", "--seed", str(seed)]
        else:
            doc = json.loads(
                write_scm_spec(synthetic.copy_chain_spec()))
            doc["seed"] = seed
            (tmp_path / "scm.json").write_text(json.dumps(doc))
            argv = ["--spec", str(tmp_path / "scm.json")]
        before = sorted(tmp_path.iterdir())
        assert run_cli("synth", *argv, "--n", "20",
                       "--out", str(tmp_path / "d.json"),
                       "--truths", str(tmp_path / "t.json")) == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_INVALID_SPEC"
        assert f"seed {seed} " in diagnostic["message"]
        assert sorted(tmp_path.iterdir()) == before


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

    def test_variable_without_categories_is_e_schema(self, tmp_path, capsys):
        # read as given, cmi would end inside the estimate with a traceback
        doc = {"variables": [{"name": "X", "categories": []},
                             {"name": "Y", "categories": ["lo", "hi"]}],
               "rows": []}
        (tmp_path / "d.json").write_text(json.dumps(doc))
        assert run_cli("cmi", "--in", str(tmp_path / "d.json"),
                       "--x", "X", "--y", "Y") == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "E_SCHEMA",
            "message": "variable 'X': needs >= 1 category"}


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
                "--out", str(a))
        run_cli("align", "--in", str(workdir / "records.jsonl"),
                "--out", str(b))
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

    def test_empty_frequency_table_is_e_empty(self, workdir, capsys):
        (workdir / "empty.csv").write_text("")
        assert run_cli("covariates", "--in", str(workdir / "records.jsonl"),
                       "--out", str(workdir / "cov.jsonl"),
                       "--freq-table", str(workdir / "empty.csv")) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "E_EMPTY", "message": "frequency table has no rows"}
        assert not (workdir / "cov.jsonl").exists()

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

    @pytest.mark.parametrize("frame", [
        {"t": "a", "probs": {"p_s": 1.0}},
        {"t": 0.5, "probs": {"p_s": 1.0}},
        {"t": True, "probs": {"p_s": 1.0}},
        {"t": 1, "probs": [1.0]},
        {"t": 1, "probs": {"p_s": "1"}},
        {"t": 1, "probs": {"p_s": True}},
        {"t": 1, "probs": {"p_s": None}},
        {"utterance_id": ["u1"], "t": 1, "probs": {"p_s": 1.0}},
        {"utterance_id": 1, "t": 1, "probs": {"p_s": 1.0}},
    ], ids=["string-t", "float-t", "bool-t", "list-probs", "string-prob",
            "bool-prob", "null-prob", "list-utterance-id",
            "number-utterance-id"])
    def test_mistyped_posterior_frame_is_e_schema(self, tmp_path, capsys,
                                                  frame):
        rec = {"id": "u1", "speaker_id": "s", "reference": "hi",
               "hypotheses": {"m": "hi"}}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        (tmp_path / "inv.json").write_text('{"p": ["p_s"]}')
        (tmp_path / "seg.jsonl").write_text(json.dumps(
            {"utterance_id": "u1", "phone": "p", "t_s": 0, "t_e": 2}))
        lines = [{"utterance_id": "u1", "t": 0, "probs": {"p_s": 1.0}},
                 {"utterance_id": "u1", **frame}]
        (tmp_path / "post.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines))
        assert run_cli("covariates", "--in", str(tmp_path / "r.jsonl"),
                       "--out", str(tmp_path / "c.jsonl"),
                       "--posteriors", str(tmp_path / "post.jsonl"),
                       "--segments", str(tmp_path / "seg.jsonl"),
                       "--inventory", str(tmp_path / "inv.json")) == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_SCHEMA"
        assert diagnostic["message"].startswith("line 2: ")

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

    def test_wav_with_sample_rate_0_is_e_schema_naming_it(self, tmp_path,
                                                         capsys):
        (tmp_path / "r.jsonl").write_bytes(MINIMAL_RECORD + b"\n")
        (tmp_path / "audio").mkdir()
        pcm = (np.full(16000, 0.25) * 32767).astype("<i2").tobytes()
        # the wave module refuses to write a rate of 0: the header by hand
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 0, 0, 2, 16)
        body = b"WAVE" + fmt + b"data" + struct.pack("<I", len(pcm)) + pcm
        (tmp_path / "audio" / "u1.wav").write_bytes(
            b"RIFF" + struct.pack("<I", len(body)) + body)
        assert run_cli("covariates", "--in", str(tmp_path / "r.jsonl"),
                       "--out", str(tmp_path / "c.jsonl"),
                       "--audio-dir", str(tmp_path / "audio")) == 1
        assert "u1.wav: sample rate 0" in e_schema_message(capsys)
        assert not (tmp_path / "c.jsonl").exists()

    @staticmethod
    def write_wav(path, amplitude):
        pcm = (np.full(16000, amplitude) * 32767).astype("<i2")
        pcm[::100] = 0  # a quiet floor, so the estimate depends on amplitude
        with wave.open(str(path), "wb") as out:
            out.setnchannels(1)
            out.setsampwidth(2)
            out.setframerate(16000)
            out.writeframes(pcm.tobytes())

    def test_rewritten_or_added_audio_invalidates_output(self, tmp_path,
                                                        capsys):
        recs = [{"id": name, "speaker_id": "s", "reference": "hi",
                 "hypotheses": {"m": "hi"}} for name in ("a", "b")]
        (tmp_path / "r.jsonl").write_text(
            "".join(json.dumps(rec) + "\n" for rec in recs))
        audio_dir = tmp_path / "audio"
        audio_dir.mkdir()
        self.write_wav(audio_dir / "a.wav", 0.25)
        out = tmp_path / "cov.jsonl"
        argv = ("covariates", "--in", str(tmp_path / "r.jsonl"),
                "--out", str(out), "--audio-dir", str(audio_dir))
        assert run_cli(*argv) == 0
        assert run_cli(*argv) == 0
        assert "is fresh, skipping" in capsys.readouterr().err
        first = out.read_bytes()

        def later(path):
            stamp = out.stat().st_mtime_ns + 10**9
            os.utime(path, ns=(stamp, stamp))

        self.write_wav(audio_dir / "a.wav", 0.5)
        later(audio_dir / "a.wav")
        assert run_cli(*argv) == 0
        assert "skipping" not in capsys.readouterr().err
        assert out.read_bytes() != first
        second = out.read_bytes()
        self.write_wav(audio_dir / "b.wav", 0.25)
        later(audio_dir / "b.wav")
        later(audio_dir)
        assert run_cli(*argv) == 0
        assert "skipping" not in capsys.readouterr().err
        assert out.read_bytes() != second

    @pytest.mark.parametrize("given", ["missing", "a file"])
    def test_audio_dir_that_is_not_a_directory_is_e_io(self, tmp_path,
                                                       capsys, given):
        rec = {"id": "a", "speaker_id": "s", "reference": "hi",
               "hypotheses": {"m": "hi"}}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        audio, out = tmp_path / "audio", tmp_path / "cov.jsonl"
        argv = ("covariates", "--in", str(tmp_path / "r.jsonl"),
                "--out", str(out), "--audio-dir", str(audio))

        def refused():
            assert run_cli(*argv) == 1
            diagnostic = json.loads(capsys.readouterr().err)
            assert diagnostic["error"] == "E_IO"
            assert diagnostic["message"].startswith(f"cannot read {audio}: ")

        if given == "a file":
            audio.write_text("not audio\n")
        refused()
        assert not out.exists()
        # a directory without the record's audio file is allowed ...
        audio.unlink(missing_ok=True)
        audio.mkdir()
        assert run_cli(*argv) == 0
        written = out.read_bytes()
        assert b"snr_db" not in written
        # ... and once it is gone, the stage is not fresh but refused
        audio.rmdir()
        if given == "a file":
            audio.write_text("not audio\n")
        refused()
        assert out.read_bytes() == written

    def test_repeated_posterior_frame_is_e_schema(self, tmp_path, capsys):
        rec = {"id": "u1", "speaker_id": "s", "reference": "hi",
               "hypotheses": {"m": "hi"}}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        (tmp_path / "inv.json").write_text('{"p": ["p_s"]}')
        (tmp_path / "seg.jsonl").write_text(json.dumps(
            {"utterance_id": "u1", "phone": "p", "t_s": 0, "t_e": 2}))
        lines = [{"utterance_id": "u1", "t": t, "probs": {"p_s": 1.0}}
                 for t in (0, 1, 0)]
        (tmp_path / "post.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines))
        assert run_cli("covariates", "--in", str(tmp_path / "r.jsonl"),
                       "--out", str(tmp_path / "c.jsonl"),
                       "--posteriors", str(tmp_path / "post.jsonl"),
                       "--segments", str(tmp_path / "seg.jsonl"),
                       "--inventory", str(tmp_path / "inv.json")) == 1
        message = e_schema_message(capsys)
        assert message.startswith("line 3: ")
        assert "'u1'" in message and "t=0" in message


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

    def test_discretize_output_takes_the_array_reader(self, workdir):
        # a writer change that sent fit and report back to json.loads
        # would keep every output byte and pass the other tests
        assert self.assemble(workdir) == 0
        raw = (workdir / "dataset.json").read_bytes()
        assert causal._canonical_dataset(io.BytesIO(raw)) is not None

    def test_discretize_writes_a_matching_sidecar(self, workdir):
        assert self.assemble(workdir) == 0
        out = workdir / "dataset.json"
        stamp = json.loads((workdir / ".dataset.json.stamp").read_text())
        assert str(workdir / ".dataset.json.arrays") in stamp["outputs"]
        with open(out, "rb") as text, \
                open(workdir / ".dataset.json.arrays", "rb") as sidecar:
            from_sidecar = causal.read_sidecar(sidecar, text)
        with open(out, "rb") as text:
            from_text = causal.DiscreteDataset.from_file(text)
        assert from_sidecar.variables == from_text.variables
        assert from_sidecar.categories == from_text.categories
        assert from_sidecar.codes.dtype == from_text.codes.dtype
        assert np.array_equal(from_sidecar.codes, from_text.codes)
        assert list(from_sidecar.continuous) == list(from_text.continuous)
        for name, column in from_text.continuous.items():
            assert np.array_equal(from_sidecar.continuous[name].view(np.int64),
                                  column.view(np.int64))

    def test_discretize_rejects_stale_scores(self, workdir, capsys):
        # a reference edited after `align` no longer matches its ref_len
        records = workdir / "records.jsonl"
        run_cli("align", "--in", str(records),
                "--out", str(workdir / "scores.jsonl"))
        recs = [json.loads(line) for line in records.read_text().splitlines()]
        recs[9]["reference"] += " and then some"
        records.write_text("".join(json.dumps(r) + "\n" for r in recs))
        run_cli("covariates", "--in", str(records),
                "--out", str(workdir / "cov.jsonl"),
                "--freq-table", str(workdir / "freq.csv"))
        capsys.readouterr()
        code = run_cli("discretize", "--records", str(workdir / "cov.jsonl"),
                       "--scores", str(workdir / "scores.jsonl"),
                       "--model", "whisper",
                       "--out", str(workdir / "dataset.json"))
        assert code == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_SCHEMA"
        assert diagnostic["record"] == "u009"
        assert "stale" in diagnostic["message"]
        assert not (workdir / "dataset.json").exists()

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
        (tmp_path / "d.json").write_text(ingest.write_report(doc))
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


def relabelled_dataset(path, node, categories):
    """A paper-shaped dataset whose ``node`` carries ``categories``, its
    codes clamped to them."""
    from asrcausal import synthetic
    doc = synthetic.generate(
        synthetic.paper_shaped_spec(n=200, seed=4)).to_document()
    j = [v["name"] for v in doc["variables"]].index(node)
    doc["variables"][j]["categories"] = categories
    for row in doc["rows"]:
        row[j] = min(row[j], len(categories) - 1)
    path.write_text(ingest.write_report(doc))


class TestCategoryContract:
    """A dataset carries the graph's categories for every graph node, and
    ``discretize`` writes them."""

    @pytest.mark.parametrize("node,categories,command", [
        ("InsErr", ["L1", "L2"], ["fit", "--out", "c.json"]),
        ("InsErr", ["L1", "L2"], ["report", "--out", "r.json"]),
        ("SNR", ["L1", "L2", "L3"],
         ["ace", "--treatment", "SNR", "--effect", "SubsErr"]),
    ], ids=["fit", "report", "ace"])
    def test_other_categories_are_e_schema(self, tmp_path, monkeypatch,
                                           capsys, node, categories, command):
        relabelled_dataset(tmp_path / "d.json", node, categories)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*command, "--in", "d.json") == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["error"] == "E_SCHEMA"
        assert repr(node) in error["message"]

    def test_integer_categories_match_the_graph(self, tmp_path):
        # a graph file and a dataset that both declare [0, 1] give the
        # bytes of the same files declaring ["0", "1"]
        outputs = []
        for name, labels in (("ints", [0, 1]), ("texts", ["0", "1"])):
            run = tmp_path / name
            run.mkdir()
            (run / "g.json").write_text(json.dumps({
                "nodes": [{"name": "X", "kind": "exogenous",
                           "categories": labels},
                          {"name": "Y", "kind": "endogenous",
                           "categories": labels}],
                "edges": [["X", "Y"]]}))
            (run / "d.json").write_text(json.dumps({
                "variables": [{"name": v, "categories": labels}
                              for v in "XY"],
                "rows": [[0, 0], [0, 1], [1, 1], [1, 1], [0, 0], [1, 0]]}))
            common = ["--in", str(run / "d.json"), "--graph",
                      str(run / "g.json")]
            assert run_cli("fit", *common, "--out", str(run / "c.json")) == 0
            assert run_cli("ace", *common, "--treatment", "X", "--effect",
                           "Y", "--out", str(run / "a.json")) == 0
            outputs.append([(run / f).read_bytes() for f in ("c.json",
                                                             "a.json")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["ace"] == pytest.approx(1 / 3)

    def test_reordered_categories_are_e_schema(self, tmp_path, capsys):
        relabelled_dataset(tmp_path / "d.json", "GoP",
                           ["High", "Average", "Low"])
        assert run_cli("fit", "--in", str(tmp_path / "d.json"),
                       "--out", str(tmp_path / "c.json")) == 1
        assert "'GoP'" in json.loads(capsys.readouterr().err)["message"]

    def test_tied_error_rates_keep_codes_under_graph_labels(self, workdir):
        # whisper only substitutes, so its deletion and insertion rates
        # are all zero and their tertile boundaries tie
        assert TestPipeline().assemble(workdir) == 0
        doc = json.loads((workdir / "dataset.json").read_text())
        names = [v["name"] for v in doc["variables"]]
        for v in doc["variables"]:
            graph_cats = ["boy", "girl"] if v["name"] == "Gender" else (
                list(ingest.GRADES) if v["name"] == "Age"
                else ["Low", "Average", "High"])
            assert v["categories"] == graph_cats
        ins = [row[names.index("InsErr")] for row in doc["rows"]]
        assert set(ins) == {1}  # the shrunk scheme's upper bin, as before
        schemes = json.loads((workdir / "schemes.json").read_text())
        assert schemes["InsErr"]["labels"] == ["Low", "Average"]

    def test_zero_spread_sigma_column_is_average(self, tmp_path):
        recs = [json.loads(line) for line
                in make_records(with_gop=False).splitlines()]
        for i, rec in enumerate(recs):
            rec.update(gop=-1.5, word_count=3 + i % 4,
                       vocab_difficulty=1.0 + (i % 7) / 3)
        (tmp_path / "r.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in recs))
        assert run_cli("discretize", "--records", str(tmp_path / "r.jsonl"),
                       "--bin", "VocabDiff=quantile",
                       "--out", str(tmp_path / "d.json")) == 0
        data = causal.DiscreteDataset.from_document(
            json.loads((tmp_path / "d.json").read_text()))
        assert data.categories["GoP"] == ("Low", "Average", "High")
        assert set(data.column("GoP").tolist()) == {1}

    @pytest.mark.parametrize("labels", [["L1", "L2"], ["Average", "Low"]],
                             ids=["nominal", "reversed"])
    def test_schemes_in_with_other_labels_is_e_schema(self, workdir, capsys,
                                                      labels):
        assert TestPipeline().assemble(workdir) == 0
        schemes = json.loads((workdir / "schemes.json").read_text())
        schemes["InsErr"]["labels"] = labels
        (workdir / "edited.json").write_text(json.dumps(schemes))
        capsys.readouterr()
        assert run_cli("discretize", "--records", str(workdir / "cov.jsonl"),
                       "--scores", str(workdir / "scores.jsonl"),
                       "--model", "whisper",
                       "--schemes-in", str(workdir / "edited.json"),
                       "--out", str(workdir / "again.json")) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "E_SCHEMA"
        assert "InsErr" in error["message"]


class TestNonObjectDocuments:
    @pytest.mark.parametrize("case,code", [
        ("posteriors-line", "E_SCHEMA"),
        ("scm-spec", "E_INVALID_SPEC"),
        ("schemes-in", "E_SCHEMA"),
    ])
    def test_exits_1_without_traceback(self, tmp_path, case, code):
        rec = {"id": "u1", "speaker_id": "s", "reference": "hi",
               "hypotheses": {"m": "hi"}}
        (tmp_path / "r.jsonl").write_text(json.dumps(rec) + "\n")
        if case == "posteriors-line":
            (tmp_path / "inv.json").write_text('{"p": ["p_s"]}')
            (tmp_path / "post.jsonl").write_text("5\n")
            (tmp_path / "seg.jsonl").write_text(json.dumps(
                {"utterance_id": "u1", "phone": "p", "t_s": 0, "t_e": 1}))
            argv = ["covariates", "--in", "r.jsonl", "--out", "c.jsonl",
                    "--posteriors", "post.jsonl", "--segments", "seg.jsonl",
                    "--inventory", "inv.json"]
        elif case == "scm-spec":
            (tmp_path / "spec.json").write_text("7\n")
            argv = ["synth", "--spec", "spec.json", "--out", "d.json"]
        else:
            (tmp_path / "schemes.json").write_text("[1]\n")
            argv = ["discretize", "--records", "r.jsonl",
                    "--schemes-in", "schemes.json", "--out", "d.json"]
        proc = subprocess.run(
            [sys.executable, "-m", "asrcausal.cli", *argv],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == code


class TestUndecodableInputs:
    """A text input holding bytes that do not decode is E_SCHEMA naming
    the file, not a traceback."""

    @pytest.mark.parametrize("case", ["graph-spec", "records"])
    def test_exits_1_naming_the_file(self, tmp_path, monkeypatch, capsys,
                                     case):
        monkeypatch.chdir(tmp_path)
        if case == "graph-spec":
            Path("bad.json").write_bytes(b'{"nodes": ["\xff"], "edges": []}')
            argv = ["fit", "--in", "d.json", "--graph", "bad.json",
                    "--out", "c.json"]
        else:
            Path("bad.json").write_bytes(
                MINIMAL_RECORD.replace(b'"hi"', b'"h\xffi"', 1) + b"\n")
            argv = ["align", "--in", "bad.json", "--out", "s.jsonl"]
        assert run_cli(*argv) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "E_SCHEMA"
        assert "bad.json" in error["message"]


MINIMAL_RECORD = (b'{"id": "u1", "speaker_id": "s", "reference": "hi", '
                  b'"hypotheses": {"m": "hi"}}')


class TestUnreadableInputs:
    """A line-delimited input that is missing or a directory is E_IO
    naming the file, as every other input is."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("inputs")
        (work / "records.jsonl").write_text(make_records(20))
        (work / "freq.csv").write_text(FREQ)
        (work / "adir").mkdir()
        assert run_cli("covariates", "--in", str(work / "records.jsonl"),
                       "--out", str(work / "cov.jsonl"),
                       "--freq-table", str(work / "freq.csv")) == 0
        assert run_cli("align", "--in", str(work / "records.jsonl"),
                       "--out", str(work / "scores.jsonl")) == 0
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "300",
                       "--out", str(work / "d.json")) == 0
        (work / "inv.json").write_text('{"p": ["p_s"]}')
        (work / "post.jsonl").write_text(json.dumps(
            {"utterance_id": "u000", "t": 0, "probs": {"p_s": 1.0}}) + "\n")
        (work / "seg.jsonl").write_text(json.dumps(
            {"utterance_id": "u000", "phone": "p", "t_s": 0, "t_e": 1})
            + "\n")
        return work

    GOP = ["--posteriors", "post.jsonl", "--segments", "seg.jsonl",
           "--inventory", "inv.json"]

    @pytest.mark.parametrize("flag, argv", [
        ("--in", ["align", "--out", "o"]),
        ("--in", ["covariates", "--out", "o"]),
        ("--posteriors", ["covariates", "--in", "records.jsonl",
                          "--out", "o", *GOP]),
        ("--segments", ["covariates", "--in", "records.jsonl",
                        "--out", "o", *GOP]),
        ("--records", ["discretize", "--out", "o"]),
        ("--scores", ["discretize", "--records", "cov.jsonl",
                      "--model", "whisper", "--out", "o"]),
        ("--in", ["oracle", "--out", "o"]),
        ("--in", ["correlate", "--out", "o"]),
        ("--records", ["report", "--in", "d.json", "--on-empty", "skip",
                       "--out", "o"]),
        ("--scores", ["report", "--in", "d.json", "--on-empty", "skip",
                      "--records", "records.jsonl", "--out", "o"]),
    ], ids=["align-in", "covariates-in", "covariates-posteriors",
            "covariates-segments", "discretize-records", "discretize-scores",
            "oracle-in", "correlate-in", "report-records", "report-scores"])
    @pytest.mark.parametrize("bad, errno_", [("nope.jsonl", errno.ENOENT),
                                            ("adir", errno.EISDIR)],
                             ids=["missing", "directory"])
    def test_is_e_io_naming_the_file(self, inputs, monkeypatch, capsys,
                                     flag, argv, bad, errno_):
        monkeypatch.chdir(inputs)
        argv = list(argv)
        if flag in argv:
            argv[argv.index(flag) + 1] = bad
        else:
            argv[1:1] = [flag, bad]
        assert run_cli(*argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "E_IO",
            "message": f"cannot read {bad}: [Errno {errno_}] "
                       f"{os.strerror(errno_)}: {bad!r}"}
        assert not Path("o").exists()


class TestRefusedOptions:
    @pytest.mark.parametrize("argv, message", [
        (["discretize", "--records", "records.jsonl", "--out", "d.json",
          "--bin", "GoP"], "--bin expects VAR=METHOD, got 'GoP'"),
        (["discretize", "--records", "records.jsonl", "--out", "d.json",
          "--bin", "GoP=median"], "unknown binning method 'median'"),
        (["discretize", "--records", "records.jsonl", "--out", "d.json",
          "--scores", "scores.jsonl"], "--scores requires --model"),
        (["covariates", "--in", "records.jsonl", "--out", "d.json",
          "--posteriors", "post.jsonl"],
         "gop needs --posteriors, --segments and --inventory together"),
        (["covariates", "--in", "records.jsonl", "--out", "d.json",
          "--segments", "seg.jsonl", "--inventory", "inv.json"],
         "gop needs --posteriors, --segments and --inventory together"),
        (["synth", "--spec", "paper-shaped", "--n", "50", "--out", "x.json",
          "--truths", "x.json"],
         "--out and --truths name one file, 'x.json'"),
        (["discretize", "--records", "records.jsonl", "--out", "dd.json",
          "--schemes-out", "./dd.json"],
         "--out and --schemes-out name one file, './dd.json'"),
    ], ids=["bin-without-equals", "bin-unknown-method", "scores-no-model",
            "posteriors-only", "no-posteriors", "synth-truths-over-out",
            "discretize-schemes-over-out"])
    def test_is_e_schema(self, workdir, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(workdir)
        before = sorted(p.name for p in workdir.iterdir())
        assert run_cli(*argv) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "E_SCHEMA",
                                                       "message": message}
        assert sorted(p.name for p in workdir.iterdir()) == before


def e_schema_message(capsys) -> str:
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "E_SCHEMA"
    return diagnostic["message"]


class TestSilentlyDroppedInputs:
    """An input the command would ignore is E_SCHEMA naming it."""

    def test_report_dataset_name_given_twice(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "300",
                       "--out", "a.json") == 0
        Path("sub").mkdir()
        Path("sub/a.json").write_bytes(Path("a.json").read_bytes())
        assert run_cli("report", "--in", "a.json", "--in", "sub/a.json",
                       "--out", "r.json") == 1
        assert "'a'" in e_schema_message(capsys)
        assert not Path("r.json").exists()

    @pytest.mark.parametrize("command", [
        ["fit", "--graph", "paper-default", "--out", "c.json"],
        ["cmi", "--graph", "paper-default", "--x", "Age", "--y", "SubsErr"],
        ["ace", "--treatment", "Age", "--effect", "SubsErr"],
    ], ids=["fit", "cmi", "ace"])
    def test_dataset_variable_listed_twice(self, tmp_path, monkeypatch,
                                           capsys, command):
        # read as given, the second Age column would never be read
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "200",
                       "--out", "a.json") == 0
        doc = json.loads(Path("a.json").read_text())
        j = [v["name"] for v in doc["variables"]].index("Age")
        doc["variables"].append(doc["variables"][j])
        for row in doc["rows"]:
            row.append(row[j])
        Path("a.json").write_text(ingest.write_report(doc))
        capsys.readouterr()
        assert run_cli(*command, "--in", "a.json") == 1
        assert e_schema_message(capsys) == "variable 'Age' listed twice"
        assert not Path("c.json").exists()

    def test_discretize_bin_of_an_unbinned_node(self, workdir, capsys):
        run_cli("covariates", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "cov.jsonl"),
                "--freq-table", str(workdir / "freq.csv"))
        assert run_cli("discretize", "--records", str(workdir / "cov.jsonl"),
                       "--out", str(workdir / "d.json"),
                       "--bin", "SRN=kde") == 1
        assert "'SRN'" in e_schema_message(capsys)


GRAPH_NODE = {"name": "A", "kind": "exogenous", "categories": ["x", "y"]}


class TestMistypedHandWrittenInputs:
    """A hand-written input of the wrong JSON type is E_SCHEMA naming the
    line or the node, never a traceback or a silent reading."""

    @pytest.mark.parametrize("doc, named", [
        ({"nodes": 5, "edges": []}, "'nodes'"),
        ({"nodes": [{**GRAPH_NODE, "categories": 3}], "edges": []}, "'A'"),
        ({"nodes": [{**GRAPH_NODE, "categories": "abc"}], "edges": []},
         "'A'"),
        ({"nodes": [{**GRAPH_NODE, "name": ["A"]}], "edges": []},
         "node name ['A']"),
        ({"nodes": [GRAPH_NODE, {**GRAPH_NODE, "name": "B"}],
          "edges": [[["A"], "B"]]}, "['A']"),
        ({"nodes": [{**GRAPH_NODE, "categories": [["x"], "y"]}],
          "edges": []}, "'A'"),
        ({"nodes": [{**GRAPH_NODE, "categories": [{"y": 1}, "y"]}],
          "edges": []}, "'A'"),
        ({"nodes": [{**GRAPH_NODE, "categories": [None, "y"]}],
          "edges": []}, "'A'"),
        ({"nodes": [{**GRAPH_NODE, "categories": [True, "y"]}],
          "edges": []}, "'A'"),
    ], ids=["nodes-int", "categories-int", "categories-string",
            "list-name", "list-endpoint", "list-category", "object-category",
            "null-category", "bool-category"])
    def test_graph_spec(self, tmp_path, monkeypatch, capsys, doc, named):
        monkeypatch.chdir(tmp_path)
        Path("g.json").write_text(json.dumps(doc))
        assert run_cli("fit", "--in", "d.json", "--graph", "g.json",
                       "--out", "c.json") == 1
        assert named in e_schema_message(capsys)

    @pytest.mark.parametrize("edit", [
        {"boundaries": [-2.0, "low"]}, {"boundaries": [-2.0, None]},
        {"boundaries": [-2.0, True]}, {"boundaries": [-2.0, [1.0]]},
        {"variable": ["GoP"]}, {"boundaries": [-2.0, float("nan")]},
        {"boundaries": [float("-inf"), -1.0]}, {"method": 5},
        {"labels": "LAH"}, {"boundaries": [-2.0, 10 ** 400]},
        {"boundaries": [-2.0], "labels": ["Low", "Average"]},
    ], ids=["string-boundary", "null-boundary", "bool-boundary",
            "list-boundary", "list-variable", "nan-boundary",
            "-inf-boundary", "int-method", "string-labels",
            "int-beyond-float-boundary", "sigma-one-boundary"])
    def test_schemes(self, workdir, capsys, edit):
        run_cli("covariates", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "cov.jsonl"),
                "--freq-table", str(workdir / "freq.csv"))
        schemes = {"GoP": {"variable": "GoP", "method": "sigma",
                           "boundaries": [-2.0, -1.0],
                           "labels": list(ingest.THREE_LEVELS), **edit}}
        (workdir / "s.json").write_text(json.dumps(schemes))
        assert run_cli("discretize", "--records", str(workdir / "cov.jsonl"),
                       "--schemes-in", str(workdir / "s.json"),
                       "--schemes-out", str(workdir / "s_out.json"),
                       "--out", str(workdir / "d.json")) == 1
        assert "GoP" in e_schema_message(capsys)

    @pytest.mark.parametrize("field", ["snr_db", "gop", "vocab_difficulty"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), -10 ** 400],
                             ids=["nan", "inf", "-inf", "int-beyond-float"])
    def test_non_finite_covariate(self, workdir, capsys, field, value):
        # json writes these as NaN, Infinity and -Infinity, which it reads
        lines = (workdir / "records.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = value
        lines[1] = json.dumps(record)
        (workdir / "r.jsonl").write_text("\n".join(lines) + "\n")
        assert run_cli("discretize", "--records", str(workdir / "r.jsonl"),
                       "--schemes-out", str(workdir / "s.json"),
                       "--out", str(workdir / "d.json")) == 1
        message = e_schema_message(capsys)
        assert message.startswith("line 2: ") and repr(field) in message
        assert not (workdir / "s.json").exists()

    @staticmethod
    def gop_inputs(tmp_path, inventory=None, segment=None):
        """covariates --posteriors/--segments/--inventory argv over one
        utterance, with the second segment edited."""
        (tmp_path / "r.jsonl").write_bytes(MINIMAL_RECORD + b"\n")
        (tmp_path / "inv.json").write_text(json.dumps(
            {"p": ["p_s"]} if inventory is None else inventory))
        segments = [{"utterance_id": "u1", "phone": "p", "t_s": 0, "t_e": 1},
                    {"utterance_id": "u1", "phone": "p", "t_s": 1, "t_e": 2,
                     **(segment or {})}]
        frames = [{"utterance_id": "u1", "t": 0, "probs": {"p_s": 1.0}},
                  {"utterance_id": "u1", "t": 1, "probs": {"p_s": 1.0}}]
        for name, lines in (("seg.jsonl", segments), ("post.jsonl", frames)):
            (tmp_path / name).write_text(
                "".join(json.dumps(line) + "\n" for line in lines))
        return ["covariates", "--in", str(tmp_path / "r.jsonl"),
                "--out", str(tmp_path / "c.jsonl"),
                "--posteriors", str(tmp_path / "post.jsonl"),
                "--segments", str(tmp_path / "seg.jsonl"),
                "--inventory", str(tmp_path / "inv.json")]

    @pytest.mark.parametrize("segment", [
        {"t_s": "1"}, {"t_s": 0.5}, {"t_s": True}, {"t_e": "2"},
        {"phone": ["p"]}, {"utterance_id": ["u1"]},
    ], ids=["string-t_s", "float-t_s", "bool-t_s", "string-t_e",
            "list-phone", "list-utterance-id"])
    def test_segments(self, tmp_path, capsys, segment):
        assert run_cli(*self.gop_inputs(tmp_path, segment=segment)) == 1
        assert e_schema_message(capsys).startswith("line 2: ")

    @pytest.mark.parametrize("inventory, named", [
        (["p", "p_s"], "inventory"),
        ({"p": "p_s"}, "'p'"),
        ({"p": ["p_s"], "q": []}, "'q'"),
        ({"p": [["p_s"]]}, "'p'"),
    ], ids=["list", "string-states", "empty-states", "list-state"])
    def test_inventory(self, tmp_path, capsys, inventory, named):
        assert run_cli(*self.gop_inputs(tmp_path, inventory=inventory)) == 1
        assert named in e_schema_message(capsys)

    def test_inventory_state_listed_twice(self, tmp_path, capsys):
        # read as given, the state's posterior would be added twice
        argv = self.gop_inputs(tmp_path, inventory={"p": ["p_s", "p_s"]})
        assert run_cli(*argv) == 1
        assert e_schema_message(capsys) == "phone 'p': duplicate states"
        assert not (tmp_path / "c.jsonl").exists()


def spec_error(capsys) -> str:
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "E_INVALID_SPEC"
    return diagnostic["message"]


class TestInvalidSpecValues:
    """An SCM spec value that is not a finite, in-range number is
    E_INVALID_SPEC naming the table and config or the emitter, with or
    without --truths, and nothing is written."""

    @staticmethod
    def synth(tmp_path, doc, *extra):
        (tmp_path / "scm.json").write_text(json.dumps(doc))
        return run_cli("synth", "--spec", str(tmp_path / "scm.json"),
                       "--n", "50", "--out", str(tmp_path / "d.json"),
                       *extra)

    @pytest.mark.parametrize("truths", [False, True], ids=["data", "truths"])
    @pytest.mark.parametrize("node, config, vec, named", [
        ("X", "", [float("nan"), 0.5, 0.5], "table for 'X', config ''"),
        ("X", "", [-0.5, 1.0, 0.5], "'X' | ()"),
        ("X", "", [10 ** 400, 0, 0], "table for 'X', config ''"),
        ("Y", "b", [0.0, float("inf"), 0.0], "table for 'Y', config 'b'"),
        ("Y", "b", [0.5, -0.5, 1.0], "'Y' | ('b',)"),
    ], ids=["nan", "negative", "int-beyond-float", "inf-in-config",
            "negative-in-config"])
    def test_table_entry(self, tmp_path, capsys, node, config, vec, named,
                         truths):
        from asrcausal import synthetic
        doc = json.loads(write_scm_spec(synthetic.copy_chain_spec()))
        doc["tables"][node][config] = vec
        extra = ["--truths", str(tmp_path / "t.json")] if truths else []
        assert self.synth(tmp_path, doc, *extra) == 1
        assert named in spec_error(capsys)
        assert not list(tmp_path.glob("[dt].json"))

    @pytest.mark.parametrize("emitter", [
        {"means": [0.0, 1.0, 2.0], "spread": float("nan")},
        {"means": [0.0, 1.0, 2.0], "spread": 10 ** 400},
        {"means": [0.0, float("inf"), 2.0], "spread": 0.1},
        {"means": [0.0, 10 ** 400, 2.0], "spread": 0.1},
    ], ids=["nan-spread", "int-beyond-float-spread", "inf-mean",
            "int-beyond-float-mean"])
    def test_emitter(self, tmp_path, capsys, emitter):
        from asrcausal import synthetic
        doc = json.loads(write_scm_spec(synthetic.copy_chain_spec()))
        doc["emitters"] = {"Y": emitter}
        assert self.synth(tmp_path, doc) == 1
        assert "'Y'" in spec_error(capsys)
        assert not (tmp_path / "d.json").exists()


class TestIntBeyondFloat:
    """An integer beyond the float range is E_SCHEMA naming its line,
    never an OverflowError traceback."""

    def test_align_on_snr(self, tmp_path, capsys):
        record = json.loads(MINIMAL_RECORD)
        (tmp_path / "r.jsonl").write_text(
            json.dumps({**record, "snr_db": 10 ** 400}) + "\n")
        assert run_cli("align", "--in", str(tmp_path / "r.jsonl"),
                       "--out", str(tmp_path / "s.jsonl")) == 1
        message = e_schema_message(capsys)
        assert message.startswith("line 1: ") and "'snr_db'" in message

    def test_discretize_on_word_count(self, workdir, capsys):
        run_cli("covariates", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "cov.jsonl"),
                "--freq-table", str(workdir / "freq.csv"))
        lines = (workdir / "cov.jsonl").read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]),
                               "word_count": 10 ** 400})
        (workdir / "r.jsonl").write_text("\n".join(lines) + "\n")
        assert run_cli("discretize", "--records", str(workdir / "r.jsonl"),
                       "--out", str(workdir / "d.json")) == 1
        message = e_schema_message(capsys)
        assert message.startswith("line 2: ") and "'word_count'" in message


def scored_records(path, specs):
    """Write one record per (id, grade, {model: hypothesis}) in `specs`,
    each with the reference "the cat sat on the mat"."""
    path.write_text("".join(
        json.dumps({"id": rid, "speaker_id": "s", "grade": grade,
                    "reference": "the cat sat on the mat",
                    "hypotheses": hyps}) + "\n"
        for rid, grade, hyps in specs))


class TestScoreStageErrors:
    def test_correlate_by_grade_fails_before_writing(self, tmp_path, capsys):
        hyps = [{"a": "the cat", "b": "the cat sat on"},
                {"a": "the cat sat", "b": "the"},
                {"a": "cat sat on the mat", "b": "the cat sat on the mat"},
                {"a": "the", "b": "a dog"}]
        scored_records(tmp_path / "r.jsonl",
                       [(f"u{i}", "K" if i < 3 else "3", h)
                        for i, h in enumerate(hyps)])
        assert run_cli("correlate", "--in", str(tmp_path / "r.jsonl"),
                       "--out", str(tmp_path / "c.csv"), "--by-grade") == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "E_TOO_FEW"
        assert diagnostic["message"].startswith("grade 3: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]

    def test_oracle_on_differing_model_sets(self, tmp_path, capsys):
        scored_records(tmp_path / "r.jsonl", [
            ("u1", "K", {"a": "the cat", "b": "the cat sat"}),
            ("u2", "K", {"a": "the cat", "b": "the mat"}),
            ("u3", "K", {"a": "the cat"})])
        assert run_cli("oracle", "--in", str(tmp_path / "r.jsonl"),
                       "--out", str(tmp_path / "o.json")) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic == {
            "error": "E_MISSING_MODEL", "record": "u3",
            "message": "records do not share a common model set "
                       "(record 'u3')"}
        assert not (tmp_path / "o.json").exists()


    def test_report_records_on_differing_model_sets(self, tmp_path, capsys):
        scored_records(tmp_path / "r.jsonl", [
            ("u1", "K", {"a": "the cat", "b": "the cat sat"}),
            ("u2", "K", {"a": "the cat", "b": "the mat"}),
            ("u3", "K", {"a": "the cat"})])
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "300",
                       "--out", str(tmp_path / "d.json")) == 0
        assert run_cli("report", "--in", str(tmp_path / "d.json"),
                       "--on-empty", "skip",
                       "--records", str(tmp_path / "r.jsonl"),
                       "--out", str(tmp_path / "rep.json")) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "E_MISSING_MODEL", "record": "u3",
            "message": "no hypothesis for model 'b' (record 'u3')"}
        assert not (tmp_path / "rep.json").exists()


class TestAceAndCmiOptions:
    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "d.json"
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "3000",
                       "--seed", "5", "--out", str(path)) == 0
        return path

    def test_ace_levels(self, data, capsys):
        from asrcausal import causal as causal_mod
        capsys.readouterr()
        assert run_cli("ace", "--in", str(data), "--treatment", "Age",
                       "--effect", "SubsErr", "--lo", "2", "--hi", "7",
                       "--on-empty", "skip") == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["lo"], doc["hi"]) == ("2", "7")
        graph = causal_mod.CausalGraph.builtin("paper-default")
        with open(data, "rb") as fh:
            dataset = causal_mod.DiscreteDataset.from_file(fh)
        want = causal_mod.ace(graph, dataset, "Age", "SubsErr", "2", "7",
                              on_empty="skip")
        assert doc["ace"] == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("flag", ["--lo", "--hi"])
    def test_ace_unknown_level(self, data, capsys, flag):
        capsys.readouterr()
        assert run_cli("ace", "--in", str(data), "--treatment", "Age",
                       "--effect", "SubsErr", flag, "13") == 1
        assert json.loads(capsys.readouterr().err)["error"] \
            == "E_UNKNOWN_LEVEL"

    def test_cmi_conditioning_sources(self, data, capsys):
        def cmi(*extra):
            capsys.readouterr()
            assert run_cli("cmi", "--in", str(data), "--x", "Age",
                           "--y", "GoP", *extra) == 0
            return json.loads(capsys.readouterr().out)

        # GoP's parents are Age and VocabDiff
        by_graph = cmi("--graph", "paper-default")
        assert by_graph["z"] == ["VocabDiff"]
        assert cmi("--z", "VocabDiff") == by_graph
        # --z overrides --graph, and neither conditions on nothing
        assert cmi("--graph", "paper-default", "--z", "SNR,")["z"] == ["SNR"]
        plain = cmi()
        assert plain["z"] == [] and plain["cmi"] != by_graph["cmi"]

    @pytest.mark.parametrize("argv, message", [
        (["cmi", "--x", "Nope", "--y", "GoP"],
         "variable 'Nope' not in dataset"),
        (["ace", "--treatment", "Nope", "--effect", "SubsErr"],
         "treatment 'Nope' not in graph"),
        (["ace", "--treatment", "Age", "--effect", "Nope"],
         "effect 'Nope' not in dataset"),
    ], ids=["cmi-x", "ace-treatment", "ace-effect"])
    def test_name_not_in_dataset_or_graph(self, data, capsys, argv, message):
        capsys.readouterr()
        assert run_cli(*argv, "--in", str(data)) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "E_MISSING_VARIABLE", "message": message}

    def test_cmi_node_not_in_graph_exits_1_without_traceback(self, data):
        proc = subprocess.run(
            [sys.executable, "-m", "asrcausal.cli", "cmi", "--in", str(data),
             "--graph", "paper-default", "--x", "Age", "--y", "Nope"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        diagnostic = json.loads(proc.stderr)
        assert diagnostic["error"] == "E_UNKNOWN_NODE"
        assert "'Nope'" in diagnostic["message"]

    def test_out_files_hold_the_stdout_bytes(self, data, tmp_path, capsys):
        for argv in (["ace", "--treatment", "Gender", "--effect", "DelErr"],
                     ["cmi", "--x", "Gender", "--y", "DelErr",
                      "--graph", "paper-default"]):
            capsys.readouterr()
            assert run_cli(*argv, "--in", str(data)) == 0
            printed = capsys.readouterr().out
            out = tmp_path / "sub" / f"{argv[0]}.json"
            assert run_cli(*argv, "--in", str(data), "--out", str(out)) == 0
            assert capsys.readouterr().out == ""
            assert out.read_text() == printed


class TestFloorPosteriors:
    def test_zero_posterior_fails_then_floors(self, tmp_path, capsys):
        argv = TestMistypedHandWrittenInputs.gop_inputs(
            tmp_path, inventory={"p": ["p_s"], "q": ["q_s"]},
            segment={"phone": "q"})
        frames = [{"utterance_id": "u1", "t": t, "probs": probs} for t, probs
                  in ((0, {"p_s": 0.5, "q_s": 0.5}),
                      (1, {"p_s": 1.0, "q_s": 0.0}))]
        (tmp_path / "post.jsonl").write_text(
            "".join(json.dumps(f) + "\n" for f in frames))
        assert run_cli(*argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] \
            == "E_ZERO_POSTERIOR"
        assert run_cli(*argv, "--floor-posteriors") == 0
        (record,) = ingest.parse_utterances(
            (tmp_path / "c.jsonl").read_text().splitlines())
        # segment 0 (p at t=0) scores 0; segment 1 (q at t=1) scores
        # ln 1e-10 - ln 1
        assert record.gop == pytest.approx(math.log(1e-10) / 2, abs=1e-9)


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



class TestStamps:
    """A stage skips only when its stamp holds the current options, every
    output it lists exists, and no input is newer than those outputs."""

    def skipped(self, capsys):
        return "is fresh, skipping" in capsys.readouterr().err

    def test_fit_alpha_change_recomputes(self, tmp_path, capsys):
        data, out = tmp_path / "d.json", tmp_path / "c.json"
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "300",
                       "--out", str(data)) == 0
        argv = ["fit", "--in", str(data), "--out", str(out)]
        assert run_cli(*argv, "--alpha", "1") == 0
        assert run_cli(*argv, "--alpha", "1") == 0
        assert self.skipped(capsys)
        assert run_cli(*argv, "--alpha", "5") == 0
        assert not self.skipped(capsys)
        assert json.loads(out.read_text())["Age"]["alpha"] == 5.0
        assert run_cli(*argv, "--alpha", "5") == 0
        assert self.skipped(capsys)

    def test_report_on_empty_change_recomputes(self, tmp_path, capsys):
        data, out = tmp_path / "d.json", tmp_path / "r.json"
        assert run_cli("synth", "--spec", "paper-shaped", "--n", "3000",
                       "--seed", "99", "--out", str(data)) == 0
        argv = ["report", "--in", f"fixture={data}", "--out", str(out)]
        assert run_cli(*argv, "--on-empty", "skip") == 0
        assert run_cli(*argv, "--on-empty", "skip") == 0
        assert self.skipped(capsys)
        assert run_cli(*argv) == 0
        assert not self.skipped(capsys)
        assert run_cli(*argv) == 0
        assert self.skipped(capsys)

    def test_discretize_bin_change_recomputes(self, workdir, capsys):
        run_cli("covariates", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "cov.jsonl"),
                "--freq-table", str(workdir / "freq.csv"))
        schemes = workdir / "schemes.json"
        argv = ["discretize", "--records", str(workdir / "cov.jsonl"),
                "--out", str(workdir / "d.json"),
                "--schemes-out", str(schemes)]
        assert run_cli(*argv, "--bin", "GoP=sigma") == 0
        assert json.loads(schemes.read_text())["GoP"]["method"] == "sigma"
        assert run_cli(*argv, "--bin", "GoP=sigma") == 0
        assert self.skipped(capsys)
        assert run_cli(*argv, "--bin", "GoP=quantile") == 0
        assert not self.skipped(capsys)
        assert json.loads(schemes.read_text())["GoP"]["method"] == "quantile"

    def test_missing_stamp_recomputes(self, workdir, capsys):
        out = workdir / "scores.jsonl"
        argv = ["align", "--in", str(workdir / "records.jsonl"),
                "--out", str(out)]
        assert run_cli(*argv) == 0
        stamp = workdir / ".scores.jsonl.stamp"
        assert json.loads(stamp.read_text())["outputs"] == [str(out)]
        assert run_cli(*argv) == 0
        assert self.skipped(capsys)
        stamp.unlink()
        assert run_cli(*argv) == 0
        assert not self.skipped(capsys)
        assert stamp.exists()

    def test_missing_listed_output_recomputes(self, workdir, capsys):
        argv = ["correlate", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "corr.csv"), "--by-grade"]
        assert run_cli(*argv) == 0
        written = sorted(workdir.glob("corr_*.csv"))
        assert written and not (workdir / "corr.csv").exists()
        assert run_cli(*argv) == 0
        assert self.skipped(capsys)
        written[0].unlink()
        assert run_cli(*argv) == 0
        assert not self.skipped(capsys)
        assert written[0].exists()

    def test_stamp_from_another_version_recomputes(self, workdir, capsys,
                                                   monkeypatch):
        argv = ["align", "--in", str(workdir / "records.jsonl"),
                "--out", str(workdir / "scores.jsonl")]
        stamp = workdir / ".scores.jsonl.stamp"
        assert run_cli(*argv) == 0
        assert json.loads(stamp.read_text())["version"] == cli.__version__
        assert run_cli(*argv) == 0
        assert self.skipped(capsys)
        monkeypatch.setattr(cli, "__version__", cli.__version__ + ".post1")
        assert run_cli(*argv) == 0
        assert not self.skipped(capsys)
        assert json.loads(stamp.read_text())["version"] \
            == cli.__version__
        assert run_cli(*argv) == 0
        assert self.skipped(capsys)

    def test_dataset_sidecar_is_a_stamped_output(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        sidecar = tmp_path / ".d.json.arrays"
        argv = ["synth", "--spec", "paper-shaped", "--n", "300", "--seed",
                "4", "--out", str(data)]
        assert run_cli(*argv) == 0
        stamp = json.loads((tmp_path / ".d.json.stamp").read_text())
        assert stamp["outputs"] == [str(data), str(sidecar)]
        first, mtime = sidecar.read_bytes(), sidecar.stat().st_mtime_ns
        # a re-run skips and leaves the sidecar as it was
        assert run_cli(*argv) == 0
        assert self.skipped(capsys)
        assert sidecar.read_bytes() == first
        assert sidecar.stat().st_mtime_ns == mtime
        # a forced run writes the same bytes
        assert run_cli(*argv, "--force") == 0
        assert sidecar.read_bytes() == first
        # deleting the sidecar makes the stage run again
        sidecar.unlink()
        assert run_cli(*argv) == 0
        assert not self.skipped(capsys)
        assert sidecar.read_bytes() == first

    def test_stamp_nested_too_deeply_recomputes(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        stamp = tmp_path / ".d.json.stamp"
        argv = ["synth", "--spec", "paper-shaped", "--n", "300", "--seed",
                "4", "--out", str(data)]
        assert run_cli(*argv) == 0
        # json raises RecursionError, not ValueError, on this
        stamp.write_text("[" * 100_000)
        assert run_cli(*argv) == 0
        assert not self.skipped(capsys)
        assert json.loads(stamp.read_text())["outputs"][0] == str(data)
        assert run_cli(*argv) == 0
        assert self.skipped(capsys)

    def test_failed_stage_leaves_no_stamp(self, tmp_path, capsys):
        bad = {"id": "u-bad", "speaker_id": "s", "reference": "?!",
               "hypotheses": {"m": "a"}}
        src = tmp_path / "r.jsonl"
        src.write_text(json.dumps(bad) + "\n")
        assert run_cli("align", "--in", str(src),
                       "--out", str(tmp_path / "o.jsonl")) == 1
        assert not (tmp_path / ".o.jsonl.stamp").exists()

class TestAtomicWrite:
    def test_failed_encoding_keeps_previous_output(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("previous\n")
        # a lone surrogate fails to encode after the file is opened
        with pytest.raises(UnicodeEncodeError):
            cli._write_text(str(out), ["x" * 100_000, "\ud800"])
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
            cli._write_text(str(out), ["new\n"])
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_unserializable_value_mid_stream_is_e_io(self, tmp_path,
                                                     monkeypatch, capsys):
        from asrcausal import synthetic
        argv = ["synth", "--spec", "paper-shaped", "--n", "300", "--seed",
                "2", "--out", str(tmp_path / "d.json"),
                "--truths", str(tmp_path / "t.json")]
        assert run_cli(*argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        true_edges = synthetic.true_edges

        def edges_with_a_set_last(spec):
            records = true_edges(spec)
            records[-1]["cmi"] = {1, 2}
            return records

        monkeypatch.setattr(synthetic, "true_edges", edges_with_a_set_last)
        assert run_cli(*argv, "--force") == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == "E_IO"
        assert "not serializable" in diagnostic["message"]
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert not [name for name in after if name.endswith(".tmp")]
        assert after["t.json"] == before["t.json"]
        assert after["d.json"] == before["d.json"]
        assert after[".d.json.arrays"] == before[".d.json.arrays"]

    @pytest.mark.parametrize("failure", ["seed out of range",
                                         "sidecar write fails"])
    def test_failed_synth_leaves_no_temporary_sidecar(
            self, tmp_path, monkeypatch, capsys, failure):
        argv = ["synth", "--spec", "paper-shaped", "--n", "300", "--seed",
                "2", "--out", str(tmp_path / "d.json")]
        assert run_cli(*argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()
                  if p.suffix != ".stamp"}
        if failure == "seed out of range":
            argv[-3] = "-1"
        else:
            pieces = causal.sidecar_pieces

            def failing(*args):
                yield next(pieces(*args))
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(causal, "sidecar_pieces", failing)
        assert run_cli(*argv, "--force") == 1
        diagnostic = json.loads(capsys.readouterr().err.strip())
        assert diagnostic["error"] == ("E_INVALID_SPEC" if failure.startswith(
            "seed") else "E_IO")
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert not [name for name in after if name.endswith(".tmp")]
        assert ".d.json.stamp" not in after
        assert {k: v for k, v in after.items() if k in before} == before
        # the sidecar left in place still matches the text
        monkeypatch.undo()
        with open(tmp_path / "d.json", "rb") as text, \
                open(tmp_path / ".d.json.arrays", "rb") as sidecar:
            assert causal.read_sidecar(sidecar, text) is not None

    def test_streamed_dataset_peaks_below_half_its_size(self, tmp_path):
        from asrcausal import synthetic
        data = synthetic.generate(
            synthetic.paper_shaped_spec(n=50_000, seed=3))
        doc = data.to_document()
        out = tmp_path / "data.json"
        tracemalloc.start()
        try:
            with open(out, "wb") as fh:
                fh.writelines(causal.dataset_pieces(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert peak < size / 2, (peak, size)
        as_lists = {**doc, "rows": data.codes.tolist(),
                    "continuous": {k: v.tolist()
                                   for k, v in doc["continuous"].items()}}
        assert out.read_text() == ingest.write_report(as_lists)


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

    def test_ingest_loads_no_numpy(self, tmp_path):
        body = ("from asrcausal import ingest\n"
                "graph = ingest.CausalGraph.builtin('paper-default')\n"
                "ingest.write_report({'graph': graph.to_document(), "
                "'x': [0.1, float('nan')], (1, 2): (3,)})")
        assert probe(body, tmp_path)[0] == set()

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

    def test_fresh_covariates_skip_loads_no_numpy(self, tmp_path):
        argv = TestMistypedHandWrittenInputs.gop_inputs(tmp_path)
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

    def test_help_and_every_fresh_skip_import_no_ingest(self, workdir,
                                                         monkeypatch):
        # every stage once in-process, so the spawned runs below are skips
        stages = [
            ["synth", "--spec", "paper-shaped", "--n", "200",
             "--out", "d.json"],
            ["align", "--in", "records.jsonl", "--out", "scores.jsonl"],
            ["covariates", "--in", "records.jsonl", "--out", "enriched.jsonl",
             "--freq-table", "freq.csv"],
            ["discretize", "--records", "enriched.jsonl", "--scores",
             "scores.jsonl", "--model", "whisper", "--out", "ds.json"],
            ["oracle", "--in", "records.jsonl", "--out", "oracle.json"],
            ["correlate", "--in", "records.jsonl", "--out", "c.csv"],
            ["fit", "--in", "ds.json", "--out", "cpts.json"],
            ["report", "--in", "fixture=d.json", "--out", "report.json",
             "--on-empty", "skip"]]
        monkeypatch.chdir(workdir)
        for argv in stages:
            assert run_cli(*argv) == 0, argv
        # the modules each call adds to sys.modules, so modules that a
        # site hook imported at start-up do not count
        body = f"""
import json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from asrcausal import cli
imported = []
for argv in {[["--help"], *stages]!r}:
    try:
        with redirect_stdout(sys.stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    imported.append([argv[0], code, sorted(set(sys.modules) - before)])
print(json.dumps(imported))
"""
        proc = subprocess.run(
            [sys.executable, "-c", body], cwd=workdir,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("is fresh, skipping") == len(stages)
        results = json.loads(proc.stdout)
        assert [name for name, _, _ in results] == [
            "--help", *(argv[0] for argv in stages)]
        for name, code, modules in results:
            assert code == 0, name
            assert not {"asrcausal.ingest", "numpy", "dataclasses",
                        "inspect"} & set(modules), (name, modules)


def spawn_cli(*argv, cwd, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m asrcausal.cli`` on the checkout's sources, as a process
    with stderr piped, help text formatted for 80 columns and stdout
    buffered unless ``unbuffered``, whatever this process's environment
    says."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "asrcausal.cli", *argv], cwd=cwd, env=env,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


class TestProcess:
    """The console entry point: a CLI process ends with the exit code
    and output bytes of ``cli.main``, after a flush of stdout and
    stderr."""

    SYNTH = ("synth", "--spec", "paper-shaped", "--n", "500", "--seed", "3",
             "--out", "d.json", "--truths", "t.json")

    def test_run_and_skip_write_the_bytes_of_main(self, tmp_path,
                                                  monkeypatch):
        spawned, in_process = tmp_path / "spawned", tmp_path / "in_process"
        spawned.mkdir()
        in_process.mkdir()
        proc = spawn_cli(*self.SYNTH, cwd=spawned)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        monkeypatch.chdir(in_process)
        assert run_cli(*self.SYNTH) == 0
        files = sorted(p.name for p in spawned.iterdir())
        assert files == [".d.json.arrays", ".d.json.stamp", "d.json",
                         "t.json"]
        assert files == sorted(p.name for p in in_process.iterdir())
        for name in files:
            assert ((spawned / name).read_bytes()
                    == (in_process / name).read_bytes()), name
        before = {name: (spawned / name).read_bytes() for name in files}
        proc = spawn_cli(*self.SYNTH, cwd=spawned)
        assert proc.returncode == 0
        assert proc.stderr == "synth: d.json is fresh, skipping\n"
        assert {name: (spawned / name).read_bytes()
                for name in files} == before

    def test_data_error_exits_1_with_the_whole_record(self, tmp_path,
                                                      monkeypatch, capsys):
        argv = ("fit", "--in", "missing.json", "--out", "cpts.json")
        proc = spawn_cli(*argv, cwd=tmp_path)
        assert proc.returncode == 1
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        assert proc.stderr == capsys.readouterr().err
        assert json.loads(proc.stderr)["error"] == "E_IO"

    def test_usage_error_exits_2(self, tmp_path):
        argv = ("fit", "--in", "d.json", "--out", "c.json", "--frobnicate")
        proc = spawn_cli(*argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: asrcausal ")
        assert proc.stderr.endswith(
            "error: unrecognized arguments: --frobnicate\n")

    def test_help_text_is_whole(self, tmp_path, monkeypatch, capsys):
        proc = spawn_cli("--help", cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as err:
            run_cli("--help")
        assert err.value.code == 0
        assert proc.stdout == capsys.readouterr().out
        assert proc.stdout.startswith("usage: asrcausal ")
        assert proc.stdout.endswith("show this help message and exit\n")

    def test_ace_without_out_prints_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*self.SYNTH) == 0
        argv = ("ace", "--in", "d.json", "--treatment", "Age", "--effect",
                "SubsErr")
        capsys.readouterr()
        assert run_cli(*argv) == 0
        printed = capsys.readouterr().out
        proc = spawn_cli(*argv, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == printed
        assert json.loads(proc.stdout)["effect"] == "SubsErr"

    def test_closed_stdout_is_no_error(self, tmp_path):
        # the interpreter sets sys.stdout to None when fd 1 is closed
        proc = subprocess.run(
            [sys.executable, "-m", "asrcausal.cli", *self.SYNTH],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
            text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / ".d.json.stamp").exists()

    # buffered, the text fails at the last flush; unbuffered, at the
    # write inside the command
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_stdout_that_cannot_be_written_is_e_io(self, tmp_path,
                                                    monkeypatch, unbuffered):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*self.SYNTH) == 0
        with open("/dev/full", "w") as full:
            proc = spawn_cli("ace", "--in", "d.json", "--treatment", "Age",
                             "--effect", "SubsErr", cwd=tmp_path,
                             stdout=full, unbuffered=unbuffered)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr) == {
            "error": "E_IO", "message": "cannot write standard output: "
                                        "[Errno 28] No space left on device"}
