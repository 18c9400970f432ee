"""Inferred covariates: pronunciation quality from frame posteriors,
vocabulary difficulty from pooled word frequencies, SNR from waveform
samples, and word counts from the reference text.

Pronunciation scoring follows the posterior-ratio formulation: a phone's
score is its duration-averaged log posterior minus the maximum averaged
log posterior over the whole phone inventory, hence always <= 0 and 0
exactly when the target phone is maximal.  Natural log throughout.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from . import alignment
from .errors import (
    EmptyInputError,
    SchemaError,
    SilentAudioError,
    TooShortError,
    ZeroPosteriorError,
)
from .ingest import FrequencyTable, is_number, read_jsonl

POSTERIOR_FLOOR = 1e-10
_SUM_TOL = 1e-6


@dataclass(frozen=True)
class PosteriorFrame:
    """Per-frame posteriors over phone states, P(s | o_t)."""

    t: int
    probs: Mapping[str, float]

    def validate(self, line: int | None = None) -> "PosteriorFrame":
        def bad(msg):
            raise SchemaError(msg, line=line)

        if isinstance(self.t, bool) or not isinstance(self.t, int):
            bad(f"frame index {self.t!r} is not an integer")
        if self.t < 0:
            bad(f"frame index {self.t} is negative")
        if not isinstance(self.probs, Mapping):
            bad(f"frame {self.t}: 'probs' must be an object")
        # one C-level type scan; items are looked at only when it fails
        if not set(map(type, self.probs.values())) <= {int, float}:
            for state, p in self.probs.items():
                if not is_number(p):
                    bad(f"frame {self.t}: P({state!r}) = {p!r} is not a "
                        f"number")
        total = 0.0
        for state, p in self.probs.items():
            if not 0.0 <= p <= 1.0:
                bad(f"frame {self.t}: P({state!r}) = {p} outside [0, 1]")
            total += p
        if abs(total - 1.0) > _SUM_TOL:
            bad(f"frame {self.t}: posteriors sum to {total}")
        return self


@dataclass(frozen=True)
class PhoneSegment:
    """A force-aligned phone span [t_s, t_e) with the phone-state inventory."""

    phone: str
    t_s: int
    t_e: int
    states_of: Mapping[str, Sequence[str]]

    def validate(self, line: int | None = None) -> "PhoneSegment":
        """Check the segment's own fields; the inventory is checked once
        per file, by ``check_inventory``."""
        def bad(msg):
            raise SchemaError(msg, line=line)

        if not isinstance(self.phone, str):
            bad(f"phone {self.phone!r} is not a string")
        for name in ("t_s", "t_e"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                bad(f"segment {self.phone!r}: {name} {value!r} is not an "
                    f"integer")
        if self.t_e <= self.t_s:
            bad(f"segment {self.phone!r}: t_e {self.t_e} <= t_s {self.t_s}")
        if self.phone not in self.states_of:
            bad(f"phone {self.phone!r} not in inventory")
        return self


def check_inventory(inventory) -> None:
    """SchemaError, naming the phone, unless ``inventory`` maps each phone
    to a non-empty list of state labels."""
    if not isinstance(inventory, Mapping):
        raise SchemaError("the phone inventory must be an object mapping "
                          "each phone to its state labels")
    for phone, states in inventory.items():
        if not (isinstance(states, (list, tuple)) and states
                and all(isinstance(state, str) for state in states)):
            raise SchemaError(f"phone {phone!r}: states must be a non-empty "
                              f"list of labels")


@dataclass(frozen=True)
class GopScore:
    phone_scores: tuple[tuple[str, float], ...]
    utterance: float


def _avg_log_posteriors(segment: PhoneSegment,
                        by_t: Mapping[int, PosteriorFrame],
                        floor: bool) -> dict[str, float]:
    """Duration-averaged log posterior per phone over the segment span,
    from the utterance's frames keyed by ``t``."""
    span = range(segment.t_s, segment.t_e)
    for t in span:
        if t not in by_t:
            raise SchemaError(f"no posterior frame for t={t}")
    phones = sorted(segment.states_of)
    sums = dict.fromkeys(phones, 0.0)
    for t in span:
        probs = by_t[t].probs
        for phone in phones:
            mass = sum(probs.get(s, 0.0) for s in segment.states_of[phone])
            if mass <= 0.0:
                if not floor:
                    raise ZeroPosteriorError(
                        f"phone {phone!r} has zero posterior at t={t}")
                mass = POSTERIOR_FLOOR
            sums[phone] += math.log(mass)
    dur = segment.t_e - segment.t_s
    return {p: s / dur for p, s in sums.items()}


def _gop(segment: PhoneSegment, by_t: Mapping[int, PosteriorFrame],
         floor: bool) -> float:
    segment.validate()
    avg = _avg_log_posteriors(segment, by_t, floor)
    return avg[segment.phone] - max(avg.values())


def gop_phone(segment: PhoneSegment, frames: Sequence[PosteriorFrame],
              *, floor: bool = False) -> float:
    """Pronunciation score of one phone: <= 0, 0 iff the target is maximal.

    ``floor`` opts into clamping zero posteriors at 1e-10 instead of
    raising, so numerical rescue stays visible at the call site.
    """
    return _gop(segment, {f.t: f for f in frames}, floor)


def gop_utterance(segments: Sequence[PhoneSegment],
                  frames: Sequence[PosteriorFrame],
                  *, floor: bool = False) -> GopScore:
    """Per-phone scores plus their arithmetic mean.  The frames are keyed
    by ``t`` once for all segments."""
    if not segments:
        raise EmptyInputError("no phone segments")
    by_t = {f.t: f for f in frames}
    scores = []
    for index, segment in enumerate(segments):
        try:
            scores.append((segment.phone, _gop(segment, by_t, floor)))
        except ZeroPosteriorError as exc:
            raise ZeroPosteriorError(f"segment {index}: {exc}") from None
    mean = sum(s for _, s in scores) / len(scores)
    return GopScore(tuple(scores), mean)


def word_rarity(word: str, table: FrequencyTable) -> float:
    """Add-one-smoothed negative log relative frequency; >= 0.

    Unseen words get the maximum, -ln(1 / (total + V)).  Strictly
    decreasing in the word's count for a fixed table.
    """
    count = table.counts.get(word, 0)
    return -math.log((count + 1) / (table.total_tokens + table.vocab_size))


def sentence_difficulty(tokens: Sequence[str], table: FrequencyTable) -> float:
    """Mean word rarity over the token sequence."""
    if not tokens:
        raise EmptyInputError("no tokens to score")
    return sum(word_rarity(t, table) for t in tokens) / len(tokens)


def word_count(reference: str) -> int:
    """Token count of the reference under the scoring normalization."""
    return len(alignment.normalize_text(reference))


def estimate_snr(samples: Sequence[float], sample_rate: int) -> float:
    """Frame-energy SNR estimate in dB, clipped to [-10, +60].

    25 ms windows with a 10 ms hop; noise power is the mean of the
    lowest-decile frames, signal power the mean of frames at or above the
    median.  Invariant to global amplitude scaling.  Requires >= 100 ms
    of audio; all-zero input raises SilentAudioError.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < int(0.1 * sample_rate):
        raise TooShortError(
            f"need >= 100 ms of audio, got {x.size / sample_rate * 1000:.1f} ms")
    if not np.any(x):
        raise SilentAudioError("all samples are zero")
    win = max(1, int(0.025 * sample_rate))
    hop = max(1, int(0.010 * sample_rate))
    n_frames = 1 + (x.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    power = np.mean(x[idx] ** 2, axis=1)
    power_sorted = np.sort(power)
    k = max(1, n_frames // 10)
    noise = float(np.mean(power_sorted[:k]))
    median = float(np.median(power))
    signal = float(np.mean(power[power >= median]))
    if noise <= 0.0:
        return 60.0
    snr = 10.0 * math.log10(signal / noise)
    return float(min(60.0, max(-10.0, snr)))


def read_audio(path: str, sample_rate: int | None = None
               ) -> tuple[np.ndarray, int]:
    """Load 16-bit PCM mono audio: WAV container or headerless raw.

    Raw files require an explicit ``sample_rate``.  Returns samples
    scaled to [-1, 1] and the sample rate.
    """
    if path.endswith(".wav"):
        with wave.open(path, "rb") as wav:
            if wav.getnchannels() != 1 or wav.getsampwidth() != 2:
                raise SchemaError(f"{path}: need 16-bit mono PCM")
            rate = wav.getframerate()
            payload = wav.readframes(wav.getnframes())
    else:
        if sample_rate is None:
            raise SchemaError(f"{path}: raw PCM needs a declared sample rate")
        rate = sample_rate
        with open(path, "rb") as fh:
            payload = fh.read()
        if len(payload) % 2:
            raise SchemaError(f"{path}: odd byte count for 16-bit PCM")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64)
    return samples / 32768.0, rate


def _utterance_lines(stream: Iterable[str], fields: Sequence[str]):
    """(line number, object, its ``utterance_id``) per line of a
    line-delimited file whose objects need a string ``utterance_id`` and
    ``fields``; else SchemaError naming the line."""
    for line_no, raw in read_jsonl(stream):
        for field in ("utterance_id", *fields):
            if field not in raw:
                raise SchemaError(f"missing field {field!r}", line=line_no)
        if not isinstance(raw["utterance_id"], str):
            raise SchemaError("'utterance_id' must be a string", line=line_no)
        yield line_no, raw, raw["utterance_id"]


def parse_posterior_frames(stream: Iterable[str]
                           ) -> dict[str, list[PosteriorFrame]]:
    """Parse line-delimited ``{utterance_id, t, probs}`` records: each
    utterance's frames in ``t`` order.  A second frame for the same
    utterance and ``t`` is SchemaError naming the line."""
    frames: dict[str, dict[int, PosteriorFrame]] = {}
    for line_no, raw, utt_id in _utterance_lines(stream, ("t", "probs")):
        frame = PosteriorFrame(raw["t"], raw["probs"]).validate(line_no)
        by_t = frames.setdefault(utt_id, {})
        if frame.t in by_t:
            raise SchemaError(f"utterance {utt_id!r}: a second frame for "
                              f"t={frame.t}", line=line_no)
        by_t[frame.t] = frame
    return {utt_id: [by_t[t] for t in sorted(by_t)]
            for utt_id, by_t in frames.items()}


def parse_segments(stream: Iterable[str], inventory: Mapping[str, Sequence[str]]
                   ) -> dict[str, list[PhoneSegment]]:
    """Parse line-delimited ``{utterance_id, phone, t_s, t_e}`` records
    against a phone inventory, which ``check_inventory`` checks first."""
    check_inventory(inventory)
    segments: dict[str, list[PhoneSegment]] = {}
    for line_no, raw, utt_id in _utterance_lines(
            stream, ("phone", "t_s", "t_e")):
        segment = PhoneSegment(raw["phone"], raw["t_s"], raw["t_e"],
                               inventory).validate(line_no)
        segments.setdefault(utt_id, []).append(segment)
    for ss in segments.values():
        ss.sort(key=lambda s: s.t_s)
    return segments
