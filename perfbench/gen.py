"""Seeded input generator for the utterance workloads.

Everything is a pure function of (seed, size): the same seed writes the
same bytes.  Utterance lengths are stratified over the declared length
distribution (evenly spaced quantiles, then shuffled), so two seeds give
the same amount of alignment work and differ only in content.  That
keeps run-to-run spread down without fixing the text.
"""

from __future__ import annotations

import json
import math
import random
import wave
from pathlib import Path

import numpy as np

GRADES = ("K", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10")
GENDERS = ("boy", "girl")

# name -> (substitution rate, deletion rate, share of utterances with
# insertions, output style).  Rates are for grade 10; younger grades
# scale them up (see _grade_factor).
MODELS = {
    "canary": (0.05, 0.02, 0.10, "cased"),
    "parakeet": (0.07, 0.03, 0.12, "lower"),
    "wav2vec2": (0.10, 0.04, 0.16, "upper"),
    "whisper": (0.06, 0.03, 0.08, "cased"),
}

VOCAB_SIZE = 4000
OOV_SHARE = 0.08          # vocabulary words absent from both frequency tables
PROPER_SHARE = 0.02       # words always written capitalised
APOSTROPHE_SHARE = 0.04   # words carrying an intra-word apostrophe
DERIVED_EVERY = 5         # every 5th record derives GoP and SNR (20%)

PHONES = ("aa", "ae", "b", "d", "eh", "f", "iy", "k", "m", "n", "s", "t")
AUDIO_RATE = 8000


def _grade_factor(grade: str) -> float:
    return 1.8 - 0.08 * GRADES.index(grade)


def _stratified(n: int, lo: int, hi: int, skew: float,
                rng: random.Random) -> list[int]:
    """n integer lengths in [lo, hi] at evenly spaced quantiles of
    lo + (hi - lo + 1) * q**skew, in seeded order."""
    out = [min(hi, lo + int((hi - lo + 1) * ((i + 0.5) / n) ** skew))
           for i in range(n)]
    rng.shuffle(out)
    return out


class Vocabulary:
    """Zipf-distributed pseudo-words with proper nouns and apostrophes."""

    def __init__(self, rng: random.Random):
        onsets = ["b", "br", "ch", "d", "f", "g", "gr", "h", "j", "k", "l",
                  "m", "n", "p", "pl", "r", "s", "sh", "st", "t", "th", "tr",
                  "v", "w", "z"]
        nuclei = ["a", "e", "i", "o", "u", "ai", "ea", "oo", "ou"]
        codas = ["", "", "n", "t", "st", "ck", "ll", "m", "r", "s"]
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < VOCAB_SIZE:
            w = "".join(rng.choice(onsets) + rng.choice(nuclei)
                        for _ in range(rng.choice((1, 1, 2, 2, 3))))
            w += rng.choice(codas)
            if w in seen:
                continue
            seen.add(w)
            if rng.random() < APOSTROPHE_SHARE:
                w += rng.choice(("'s", "n't", "'ll", "'re"))
            words.append(w)
        self.words = words
        self.proper = {w for w in words if rng.random() < PROPER_SHARE
                       and "'" not in w}
        weights = [1.0 / (k + 2.7) ** 1.07 for k in range(VOCAB_SIZE)]
        total = sum(weights)
        self.probs = [w / total for w in weights]
        acc, cum = 0.0, []
        for w in weights:
            acc += w
            cum.append(acc)
        self._cum = cum

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=k)


def _surface(tokens: list[str], vocab: Vocabulary, rng: random.Random,
             style: str) -> str:
    """Render tokens with case and punctuation; the scorer's normalization
    must undo all of it."""
    if style == "lower":
        return " ".join(tokens)
    if style == "upper":
        return " ".join(tokens).upper()
    out = []
    for i, tok in enumerate(tokens):
        word = tok.capitalize() if i == 0 or tok in vocab.proper else tok
        if i + 1 < len(tokens) and rng.random() < 0.12:
            word += rng.choice((",", ",", ";", " -"))
        out.append(word)
    text = " ".join(out) + rng.choice((".", ".", ".", "?", "!"))
    if rng.random() < 0.05:
        text = '"' + text + '"'
    elif rng.random() < 0.03:
        text = "'" + text + "'"
    return text


def _corrupt(ref: list[str], grade: str, rates, vocab: Vocabulary,
             rng: random.Random) -> list[str]:
    sub, dele, ins_share, _ = rates
    f = _grade_factor(grade)
    sub, dele = sub * f, dele * f
    hyp = []
    for tok in ref:
        u = rng.random()
        if u < sub:
            if "'" in tok and rng.random() < 0.5:
                hyp.append(tok.replace("'", ""))
            else:
                cand = vocab.sample(rng, 1)[0]
                hyp.append(cand if cand != tok else cand + "s")
        elif u < sub + dele:
            continue
        else:
            hyp.append(tok)
    if rng.random() < ins_share * f:
        for _ in range(1 if rng.random() < 0.8 else 2):
            hyp.insert(rng.randint(0, len(hyp)), vocab.sample(rng, 1)[0])
    return hyp


def _frequency_tables(vocab: Vocabulary, rng: random.Random
                      ) -> tuple[str, str]:
    """Two corpora over most of the vocabulary plus filler words; an
    OOV share of the vocabulary appears in neither."""
    oov = set(rng.sample(vocab.words, int(OOV_SHARE * VOCAB_SIZE)))
    texts = []
    for scale, filler_prefix in ((3_000_000, "zq"), (1_200_000, "xq")):
        rows = []
        for word, p in zip(vocab.words, vocab.probs):
            if word in oov or rng.random() < 0.1:
                continue
            count = max(1, int(scale * p * rng.uniform(0.6, 1.4)))
            rows.append(f"{word},{count}")
        rows += [f"{filler_prefix}{i},{rng.randint(1, 40)}"
                 for i in range(500)]
        rng.shuffle(rows)
        texts.append("word,count\n" + "\n".join(rows) + "\n")
    return texts[0], texts[1]


def _write_wav(path: Path, n_words: int, snr_db: float, rng: np.random.Generator):
    n = int(AUDIO_RATE * (0.3 + 0.06 * n_words))
    noise = rng.normal(0.0, 1.0, n)
    speech = np.zeros(n)
    hop = AUDIO_RATE // 10
    t = np.arange(hop) / AUDIO_RATE
    for start in range(0, n - hop, hop):
        if rng.random() < 0.6:
            freq = rng.uniform(120.0, 400.0)
            speech[start:start + hop] = np.sin(2 * np.pi * freq * t) \
                * rng.uniform(0.5, 1.0)
    gain = 10 ** (snr_db / 20.0) * math.sqrt(np.mean(noise ** 2)) \
        / max(1e-9, math.sqrt(np.mean(speech ** 2)))
    x = speech * gain + noise
    x = x / np.max(np.abs(x)) * 0.9
    pcm = np.round(x * 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(AUDIO_RATE)
        w.writeframes(pcm.tobytes())


def _posterior_lines(utt_id: str, tokens: list[str], quality: float,
                     rng: random.Random, frames: list[str],
                     segments: list[str]):
    """Two phones per word, 2-4 frames per phone; the target phone gets
    posterior mass that grows with the speaker's pronunciation quality."""
    states = [f"{p}_{k}" for p in PHONES for k in (1, 2)]
    t = 0
    for tok in tokens:
        h = sum(map(ord, tok))
        for phone in (PHONES[h % len(PHONES)], PHONES[(h // 7) % len(PHONES)]):
            dur = rng.randint(2, 4)
            segments.append(json.dumps({"utterance_id": utt_id, "phone": phone,
                                        "t_s": t, "t_e": t + dur}))
            for _ in range(dur):
                raw = [0.05 + rng.random() for _ in states]
                target = rng.random() * 20 * quality
                i = PHONES.index(phone) * 2 + rng.randint(0, 1)
                raw[i] += target
                total = sum(raw)
                probs = [max(1e-5, round(r / total, 5)) for r in raw[:-1]]
                probs.append(1.0 - sum(probs))
                frames.append(json.dumps({"utterance_id": utt_id, "t": t,
                                          "probs": dict(zip(states, probs))}))
                t += 1


def _records(n: int, lengths: tuple[int, int, float], vocab: Vocabulary,
             rng: random.Random):
    lo, hi, skew = lengths
    out = []
    n_speakers = max(1, n // 8)
    speakers = [(rng.choice(GRADES), rng.choice(GENDERS), rng.uniform(0.1, 1.0))
                for _ in range(n_speakers)]
    for i, length in enumerate(_stratified(n, lo, hi, skew, rng)):
        spk = rng.randrange(n_speakers)
        grade, gender, quality = speakers[spk]
        ref = vocab.sample(rng, length)
        hyps = {}
        for model, rates in MODELS.items():
            hyp = _corrupt(ref, grade, rates, vocab, rng)
            hyps[model] = _surface(hyp, vocab, rng, rates[3]) if hyp else ""
        out.append({"id": f"u{i:06d}", "speaker_id": f"s{spk:05d}",
                    "reference": _surface(ref, vocab, rng, "cased"),
                    "hypotheses": hyps, "grade": grade, "gender": gender,
                    "_tokens": ref, "_quality": quality})
    return out


def write_short(root: Path, seed: int, n_records: int) -> dict:
    """Prompted-sentence records (3-25 words) with covariate side files.

    Returns the file names the stages read.  Every DERIVED_EVERY-th
    record omits gop and snr_db and gets posteriors, segments and a WAV;
    the rest carry precomputed values.  No record carries word_count or
    vocab_difficulty, so covariates computes them for all.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    vocab = Vocabulary(rng)
    freq_a, freq_b = _frequency_tables(vocab, rng)
    (root / "freq_a.csv").write_text(freq_a)
    (root / "freq_b.csv").write_text(freq_b)
    audio = root / "audio"
    audio.mkdir()
    frames: list[str] = []
    segments: list[str] = []
    lines = []
    for i, rec in enumerate(_records(n_records, (3, 25, 1.4), vocab, rng)):
        tokens, quality = rec.pop("_tokens"), rec.pop("_quality")
        if i % DERIVED_EVERY == 0:
            _posterior_lines(rec["id"], tokens, quality, rng, frames, segments)
            _write_wav(audio / f"{rec['id']}.wav", len(tokens),
                       rng.uniform(0.0, 40.0), nrng)
        else:
            rec["snr_db"] = round(min(60.0, max(-10.0, rng.gauss(22.0, 9.0))), 3)
            rec["gop"] = -round(abs(rng.gauss(1.2 - quality, 0.5)), 4)
        lines.append(json.dumps(rec, sort_keys=True))
    (root / "records.jsonl").write_text("\n".join(lines) + "\n")
    (root / "posteriors.jsonl").write_text("\n".join(frames) + "\n")
    (root / "segments.jsonl").write_text("\n".join(segments) + "\n")
    inventory = {p: [f"{p}_1", f"{p}_2"] for p in PHONES}
    (root / "phones.json").write_text(json.dumps(inventory, sort_keys=True))
    return {"records": "records.jsonl"}

