"""Inferred covariates: pronunciation quality from frame posteriors,
vocabulary difficulty from pooled word frequencies, SNR from waveform
samples, and word counts from the reference text.

Pronunciation scoring follows the posterior-ratio formulation: a phone's
score is its duration-averaged log posterior minus the maximum averaged
log posterior over the whole phone inventory, hence always <= 0 and 0
exactly when the target phone is maximal.  Natural log throughout.
Posteriors are held as one (frames x states) float array per utterance,
``UtterancePosteriors``, and every segment of an utterance is scored
from it in one pass.
"""

from __future__ import annotations

import json
import math
import wave
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import alignment
from .errors import (
    EmptyInputError,
    IoError,
    SchemaError,
    SilentAudioError,
    TooShortError,
    ZeroPosteriorError,
)
from .ingest import FrequencyTable, is_number, read_jsonl

POSTERIOR_FLOOR = 1e-10
_SUM_TOL = 1e-6


@dataclass(frozen=True)
class UtterancePosteriors:
    """One utterance's frame posteriors P(s | o_t): row ``i`` of the
    (frames x states) ``probs`` is frame ``ts[i]``, ``ts`` ascending, and
    its columns follow ``states``; a state a frame omits reads 0.0."""

    states: tuple[str, ...]
    ts: Sequence[int]
    probs: np.ndarray


NO_FRAMES = UtterancePosteriors((), (), np.zeros((0, 0)))


def _check_frame(t, probs, line: int) -> None:
    """SchemaError naming ``line`` unless ``t`` is a non-negative
    integer and ``probs`` an object of numbers in [0, 1] summing to 1.
    The sum adds the frame's own values in its own key order."""
    def bad(msg):
        raise SchemaError(msg, line=line)

    if isinstance(t, bool) or not isinstance(t, int):
        bad(f"frame index {t!r} is not an integer")
    if t < 0:
        bad(f"frame index {t} is negative")
    if not isinstance(probs, Mapping):
        bad(f"frame {t}: 'probs' must be an object")
    # one C-level type scan; items are looked at only when it fails
    if not set(map(type, probs.values())) <= {int, float}:
        for state, p in probs.items():
            if not is_number(p):
                bad(f"frame {t}: P({state!r}) = {p!r} is not a number")
    total = 0.0
    for state, p in probs.items():
        if not 0.0 <= p <= 1.0:
            bad(f"frame {t}: P({state!r}) = {p} outside [0, 1]")
        total += p
    if abs(total - 1.0) > _SUM_TOL:
        bad(f"frame {t}: posteriors sum to {total}")


@dataclass(frozen=True)
class PhoneSegment:
    """A force-aligned phone span [t_s, t_e) with the phone-state inventory."""

    phone: str
    t_s: int
    t_e: int
    states_of: Mapping[str, Sequence[str]]

    def __post_init__(self):
        """SchemaError unless the segment's own fields are valid; the
        inventory is checked once per file, by ``check_inventory``."""
        if not isinstance(self.phone, str):
            raise SchemaError(f"phone {self.phone!r} is not a string")
        for name in ("t_s", "t_e"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"segment {self.phone!r}: {name} "
                                  f"{value!r} is not an integer")
        if self.t_e <= self.t_s:
            raise SchemaError(f"segment {self.phone!r}: t_e {self.t_e} <= "
                              f"t_s {self.t_s}")
        if self.phone not in self.states_of:
            raise SchemaError(f"phone {self.phone!r} not in inventory")


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


def _log_masses(post: UtterancePosteriors, inventory, phones,
                floor: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(log phone mass, zero mask) per frame and phone in ``phones``.

    A phone's mass adds its state columns in its inventory order.  A
    zero mass is floored when ``floor``; else the mask marks it (its log
    reads 0.0) so the segment that covers it can name it.
    """
    probs = post.probs
    column = {state: i for i, state in enumerate(post.states)}
    masses = np.zeros((len(post.ts), len(phones)))
    for j, phone in enumerate(phones):
        mass = masses[:, j]
        for state in inventory[phone]:
            if state in column:
                mass += probs[:, column[state]]
    zero = masses <= 0.0
    masses[zero] = POSTERIOR_FLOOR if floor else 1.0
    logs = np.fromiter(map(math.log, masses.ravel().tolist()), np.float64,
                       masses.size).reshape(masses.shape)
    return logs, (None if floor or not zero.any() else zero)


def _span_start(index: int, segment: PhoneSegment, ts: Sequence[int],
               zero: np.ndarray | None, phones) -> int:
    """The row of ``segment.t_s``; SchemaError naming the first ``t`` of
    the span without a frame, else ZeroPosteriorError naming the segment
    ``index``, the first zero phone and its ``t``."""
    start = bisect_left(ts, segment.t_s)
    stop = start + segment.t_e - segment.t_s
    # ts ascends without repeats, so the span is whole iff its ends are
    if not (stop <= len(ts) and ts[start] == segment.t_s
            and ts[stop - 1] == segment.t_e - 1):
        for row, t in enumerate(range(segment.t_s, segment.t_e), start):
            if row >= len(ts) or ts[row] != t:
                raise SchemaError(f"no posterior frame for t={t}")
    if zero is not None and zero[start:stop].any():
        row, j = divmod(int(np.flatnonzero(zero[start:stop])[0]),
                        len(phones))
        raise ZeroPosteriorError(
            f"segment {index}: phone {phones[j]!r} has zero posterior at "
            f"t={ts[start + row]}")
    return start


def gop_utterance(segments: Sequence[PhoneSegment],
                  frames: UtterancePosteriors,
                  *, floor: bool = False) -> GopScore:
    """Per-phone scores plus their arithmetic mean, every segment scored
    from the utterance's arrays in one pass.

    A phone's score is its duration-averaged log posterior minus the
    maximum over the inventory: <= 0, 0 iff the target is maximal.  Each
    segment's log posteriors are added frame by frame in ``t`` order, so
    the scores are those of a per-frame loop to the bit.  The segments
    share one inventory.  ``floor`` opts into clamping zero posteriors at
    1e-10 instead of raising, so numerical rescue stays visible at the
    call site.
    """
    if not segments:
        raise EmptyInputError("no phone segments")
    inventory = segments[0].states_of
    phones = sorted(inventory)
    logs, zero = _log_masses(frames, inventory, phones, floor)
    starts = []
    for index, segment in enumerate(segments):
        if segment.states_of is not inventory \
                and segment.states_of != inventory:
            raise SchemaError("the segments of an utterance must share one "
                              "phone inventory")
        starts.append(_span_start(index, segment, frames.ts, zero, phones))
    starts = np.array(starts)
    lengths = np.array([s.t_e - s.t_s for s in segments])
    # a row of zeros past the last frame stands in for frames past a
    # segment's end; adding 0.0 leaves a sum as it is
    logs = np.vstack([logs, np.zeros((1, len(phones)))])
    sums = np.zeros((len(segments), len(phones)))
    for k in range(int(lengths.max())):
        sums += logs[np.where(k < lengths, starts + k, len(logs) - 1)]
    avg = sums / lengths[:, None]
    target = [phones.index(s.phone) for s in segments]
    gops = avg[np.arange(len(segments)), target] - avg.max(axis=1)
    scores = [(s.phone, g) for s, g in zip(segments, gops.tolist())]
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
    of audio; all-zero input raises SilentAudioError, and a sample rate
    of 0 or below SchemaError.
    """
    if sample_rate <= 0:
        raise SchemaError(f"sample rate {sample_rate} is not above 0")
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
    scaled to [-1, 1] and the sample rate.  A file that is no such WAV,
    holds an odd byte count or declares a rate of 0 or below is
    SchemaError naming the file; one that cannot be read is IoError.
    """
    try:
        if path.endswith(".wav"):
            with wave.open(path, "rb") as wav:
                if wav.getnchannels() != 1 or wav.getsampwidth() != 2:
                    raise SchemaError(f"{path}: need 16-bit mono PCM")
                rate = wav.getframerate()
                payload = wav.readframes(wav.getnframes())
        else:
            if sample_rate is None:
                raise SchemaError(
                    f"{path}: raw PCM needs a declared sample rate")
            rate = sample_rate
            with open(path, "rb") as fh:
                payload = fh.read()
    except (wave.Error, EOFError) as exc:
        raise SchemaError(f"{path}: not a WAV file: "
                          f"{str(exc) or 'it ends inside its header'}"
                          ) from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    if len(payload) % 2:
        raise SchemaError(f"{path}: odd byte count for 16-bit PCM")
    if rate <= 0:
        raise SchemaError(f"{path}: sample rate {rate} is not above 0")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64)
    return samples / 32768.0, rate


def _utterance_lines(stream: Iterable[str], fields: Sequence[str],
                     first: int = 1):
    """(line number, object, its ``utterance_id``) per line of a
    line-delimited file whose objects need a string ``utterance_id`` and
    ``fields``, lines numbered from ``first``; else SchemaError naming
    the line."""
    for line_no, raw in read_jsonl(stream, first):
        for field in ("utterance_id", *fields):
            if field not in raw:
                raise SchemaError(f"missing field {field!r}", line=line_no)
        if not isinstance(raw["utterance_id"], str):
            raise SchemaError("'utterance_id' must be a string", line=line_no)
        yield line_no, raw, raw["utterance_id"]


def inventory_states(inventory: Mapping[str, Sequence[str]]
                     ) -> tuple[str, ...]:
    """Every state label of ``inventory`` once, in order of first
    listing."""
    return tuple(dict.fromkeys(state for states in inventory.values()
                               for state in states))


_CHUNK_LINES = 256  # posterior lines decoded by one json.loads


def _bulk_frames(lines: Sequence[str], states: Sequence[str]):
    """``(utterance ids, ts, rows)``, one per line, for a chunk of
    posterior lines whose every line is a valid frame, all in one key
    layout; else None.  ``rows`` are the chunk's (lines x states)
    posteriors.

    One ``json.loads`` reads the chunk as ``[[line, true], ...]``, so
    the keys are decoded once for all frames.  When the lines hold no
    ``true``, each one there is ours, and a pair back per line proves
    each line is one JSON value of its own.  The checks are those of
    ``_check_frame`` on arrays; each frame's sum adds its values in its
    key order, column by column.
    """
    text = "[[" + ",true],[".join(lines) + ",true]]"
    if text.count("true") != len(lines):
        return None
    try:
        pairs = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if len(pairs) != len(lines):
        return None
    utt_ids, ts, values, layout = [], [], [], None
    for pair in pairs:
        if not (type(pair) is list and len(pair) == 2 and pair[1] is True
                and type(pair[0]) is dict):
            return None
        frame = pair[0]
        utt_id, t, probs = (frame.get("utterance_id"), frame.get("t"),
                            frame.get("probs"))
        if not (type(utt_id) is str and type(t) is int and t >= 0
                and type(probs) is dict):
            return None
        if layout is None:
            layout = tuple(probs)
        elif tuple(probs) != layout:
            return None
        utt_ids.append(utt_id)
        ts.append(t)
        values.extend(probs.values())
    if not (layout and set(map(type, values)) <= {int, float}):
        return None
    try:
        v = np.array(values, np.float64).reshape(len(pairs), len(layout))
    except OverflowError:   # an integer beyond the float range
        return None
    total = np.zeros(len(pairs))
    for column in v.T:
        total += column
    if not (((v >= 0.0) & (v <= 1.0)).all()
            and (np.abs(total - 1.0) <= _SUM_TOL).all()):
        return None
    where = {state: i for i, state in enumerate(layout)}
    rows = np.zeros((len(pairs), len(states)))
    for j, state in enumerate(states):
        if state in where:
            rows[:, j] = v[:, where[state]]
    return utt_ids, ts, rows


def parse_posterior_frames(stream: Iterable[str],
                           inventory: Mapping[str, Sequence[str]]
                           ) -> dict[str, UtterancePosteriors]:
    """Parse line-delimited ``{utterance_id, t, probs}`` records into one
    (frames x states) float array per utterance, rows in ``t`` order and
    columns in ``inventory_states`` order; ``check_inventory`` checks the
    inventory first.

    Every frame's row streams into one float64 buffer, so no per-frame
    object outlives its chunk of lines, and an utterance whose frames
    come together in ``t`` order gets a view of it.  A chunk
    ``_bulk_frames`` cannot take is read line by line, each frame
    checked by ``_check_frame``, so an error names its line.  Either way
    each frame is recorded by one routine, which refuses a second frame
    for the same utterance and ``t`` as SchemaError naming the line.
    """
    check_inventory(inventory)
    states = inventory_states(inventory)
    zeros = [0.0] * len(states)
    rows = array("d")   # every frame's posteriors, in line order
    n_rows = 0
    # utterance -> [its frame indices, its [first, end) runs of rows, the
    # set of its frame indices, or None while they ascend]
    buffers: dict[str, list] = {}

    def record(utt_id, t, line_no, row):
        """Record that buffer ``row``, read from line ``line_no``, is
        frame ``t`` of ``utt_id``."""
        entry = buffers.get(utt_id)
        if entry is None:
            buffers[utt_id] = [[t], [[row, row + 1]], None]
            return
        ts, runs, seen = entry
        if seen is None and t <= ts[-1]:
            seen = entry[2] = set(ts)
        if seen is not None:
            if t in seen:
                raise SchemaError(f"utterance {utt_id!r}: a second frame "
                                  f"for t={t}", line=line_no)
            seen.add(t)
        ts.append(t)
        if runs[-1][1] == row:
            runs[-1][1] = row + 1
        else:
            runs.append([row, row + 1])

    stream = iter(stream)
    first = 1
    while lines := list(islice(stream, _CHUNK_LINES)):
        bulk = _bulk_frames(lines, states)
        if bulk is not None:
            utt_ids, ts, block = bulk
            rows.frombytes(block.tobytes())
            for i, (utt_id, t) in enumerate(zip(utt_ids, ts)):
                record(utt_id, t, first + i, n_rows + i)
            n_rows += len(ts)
        else:
            for line_no, raw, utt_id in _utterance_lines(
                    lines, ("t", "probs"), first):
                t, probs = raw["t"], raw["probs"]
                _check_frame(t, probs, line_no)
                rows.extend(map(probs.get, states, zeros))
                record(utt_id, t, line_no, n_rows)
                n_rows += 1
        first += len(lines)
    table = np.frombuffer(rows, np.float64).reshape(n_rows, len(states))
    frames = {}
    for utt_id, (ts, runs, seen) in buffers.items():
        if len(runs) == 1 and seen is None:
            probs = table[runs[0][0]:runs[0][1]]
        else:
            at = np.concatenate([np.arange(a, b) for a, b in runs])
            if seen is not None:
                order = sorted(range(len(ts)), key=ts.__getitem__)
                ts, at = [ts[i] for i in order], at[order]
            probs = table[at]
        frames[utt_id] = UtterancePosteriors(states, ts, probs)
    return frames


def parse_segments(stream: Iterable[str], inventory: Mapping[str, Sequence[str]]
                   ) -> dict[str, list[PhoneSegment]]:
    """Parse line-delimited ``{utterance_id, phone, t_s, t_e}`` records
    against a phone inventory, which ``check_inventory`` checks first."""
    check_inventory(inventory)
    segments: dict[str, list[PhoneSegment]] = {}
    for line_no, raw, utt_id in _utterance_lines(
            stream, ("phone", "t_s", "t_e")):
        try:
            segment = PhoneSegment(raw["phone"], raw["t_s"], raw["t_e"],
                                   inventory)
        except SchemaError as exc:
            raise SchemaError(str(exc), line=line_no) from None
        segments.setdefault(utt_id, []).append(segment)
    for ss in segments.values():
        ss.sort(key=lambda s: s.t_s)
    return segments
