import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from asrcausal import cli, covariates
from asrcausal.covariates import (
    POSTERIOR_FLOOR,
    PhoneSegment,
    UtterancePosteriors,
    estimate_snr,
    gop_utterance,
    parse_posterior_frames,
    sentence_difficulty,
    word_count,
    word_rarity,
)
from asrcausal.errors import (
    EmptyInputError,
    IoError,
    SchemaError,
    SilentAudioError,
    TooShortError,
    ZeroPosteriorError,
)
from asrcausal.ingest import FrequencyTable


INVENTORY = {"p": ["p_s1"], "q": ["q_s1"]}


def frame_lines(rows, utt_id="u"):
    """rows: per-frame dict state -> prob, frame t = row index."""
    return [json.dumps({"utterance_id": utt_id, "t": t, "probs": probs})
            for t, probs in enumerate(rows)]


def frames_from_rows(rows, inventory=INVENTORY):
    """The rows parsed, and so checked, as one utterance's posteriors."""
    return parse_posterior_frames(frame_lines(rows), inventory)["u"]


def two_phone_frames(p_probs):
    return frames_from_rows([{"p_s1": p, "q_s1": 1.0 - p} for p in p_probs])


# --- reference: the per-frame kernel the array path replaced -------------

def _avg_log_posteriors(segment: PhoneSegment,
                        by_t,
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


def reference_gop_utterance(segments, lines, floor):
    """(phone scores, mean) from the per-frame kernel over the frames of
    ``lines`` as dicts, with its errors as the array path words them."""
    by_t = {}
    for line in lines:
        frame = json.loads(line)
        by_t[frame["t"]] = SimpleNamespace(probs=frame["probs"])
    scores = []
    for index, segment in enumerate(segments):
        try:
            avg = _avg_log_posteriors(segment, by_t, floor)
        except ZeroPosteriorError as exc:
            raise ZeroPosteriorError(f"segment {index}: {exc}") from None
        scores.append((segment.phone, avg[segment.phone] - max(avg.values())))
    return tuple(scores), sum(s for _, s in scores) / len(scores)


def random_case(rng: random.Random):
    """(inventory, segments, frame lines) of one utterance.

    Phones have one or two states (``sum`` in the reference compensates
    from Python 3.12 on, so three terms could differ there in the last
    bit); one state is listed under two phones.  Frames may omit states,
    and name states outside the inventory; their ``t`` jump over gaps
    between runs of segments; the lines may come in a shuffled order.
    """
    n_phones = rng.randint(2, 5)
    inventory = {f"ph{i}": [f"ph{i}_{k}" for k in range(rng.randint(1, 2))]
                 for i in range(n_phones)}
    inventory["ph0"].append(inventory["ph1"][0])
    states = [*covariates.inventory_states(inventory), "noise"]
    segments, ts, t = [], [], rng.randint(0, 3)
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.3:
            t += rng.randint(1, 4)      # frames missing between segments
        dur = rng.randint(1, 4)
        segments.append(PhoneSegment(rng.choice(sorted(inventory)), t,
                                     t + dur, inventory))
        ts += range(t, t + dur)
        t += dur
    full_layout = rng.random() < 0.5
    lines = []
    for t in ts:
        kept = [s for s in states
                if full_layout or rng.random() < 0.7] or ["noise"]
        raw = [rng.random() + (rng.random() < 0.2) * 5 for _ in kept]
        total = sum(raw)
        probs = dict(zip(kept, (r / total for r in raw)))
        lines.append(json.dumps({"utterance_id": "u", "t": t,
                                 "probs": probs}))
    if rng.random() < 0.3:
        rng.shuffle(lines)
    return inventory, segments, lines


class TestAgainstThePerFrameKernel:
    @pytest.mark.parametrize("floor", [False, True], ids=["raise", "floor"])
    def test_bit_equal_scores_and_same_errors(self, floor):
        rng = random.Random(16)
        outcomes = set()
        for _ in range(400):
            inventory, segments, lines = random_case(rng)
            try:
                expected = reference_gop_utterance(segments, lines, floor)
            except ZeroPosteriorError as exc:
                expected = exc
            frames = parse_posterior_frames(lines, inventory)["u"]
            if isinstance(expected, ZeroPosteriorError):
                with pytest.raises(ZeroPosteriorError) as err:
                    gop_utterance(segments, frames, floor=floor)
                assert str(err.value) == str(expected)
                outcomes.add("zero")
                continue
            score = gop_utterance(segments, frames, floor=floor)
            assert score.phone_scores == expected[0]
            assert score.utterance == expected[1]
            for segment, (_, value) in zip(segments, expected[0]):
                assert gop_utterance([segment], frames,
                                     floor=floor).utterance == value
            outcomes.add("scored")
        assert outcomes == ({"scored"} if floor else {"scored", "zero"})

    def test_missing_frame_names_t(self):
        inventory, segments, lines = random_case(random.Random(3))
        dropped = json.loads(lines.pop())["t"]
        with pytest.raises(SchemaError) as err:
            reference_gop_utterance(segments, lines, True)
        with pytest.raises(SchemaError) as new:
            gop_utterance(segments, parse_posterior_frames(
                lines, inventory)["u"], floor=True)
        assert str(new.value) == str(err.value) \
            == f"no posterior frame for t={dropped}"

    def test_zero_posterior_names_segment_and_t(self):
        rows = [{"p_s1": 0.5, "q_s1": 0.5}, {"p_s1": 0.5, "q_s1": 0.5},
                {"p_s1": 1.0}]
        segs = [PhoneSegment("p", 0, 1, INVENTORY),
                PhoneSegment("q", 1, 3, INVENTORY)]
        with pytest.raises(ZeroPosteriorError) as err:
            gop_utterance(segs, frames_from_rows(rows))
        assert str(err.value) == \
            "segment 1: phone 'q' has zero posterior at t=2"

    def test_both_readers_give_the_same_arrays(self):
        """A line holding ``true`` sends its chunk line by line; the
        arrays are those of the one-decode path."""
        rng = random.Random(5)
        for _ in range(50):
            inventory, _, lines = random_case(rng)
            bulk = parse_posterior_frames(lines, inventory)["u"]
            flagged = [line[:-1] + ', "flag": true}' for line in lines]
            by_line = parse_posterior_frames(flagged, inventory)["u"]
            assert by_line.ts == bulk.ts == sorted(bulk.ts)
            assert by_line.states == bulk.states
            assert np.array_equal(by_line.probs, bulk.probs)


class TestGopPhone:
    def test_target_maximal_scores_zero(self):
        frames = two_phone_frames([0.8, 0.8])
        seg = PhoneSegment("p", 0, 2, INVENTORY)
        assert gop_utterance([seg], frames).utterance \
            == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_log_ratio(self):
        # ln 0.2 - ln 0.8 = ln 0.25
        frames = two_phone_frames([0.2, 0.2])
        seg = PhoneSegment("p", 0, 2, INVENTORY)
        assert gop_utterance([seg], frames).utterance \
            == pytest.approx(math.log(0.25), abs=1e-9)

    def test_equal_averaged_log_posteriors(self):
        # p: (0.8, 0.2), q: (0.2, 0.8) -> identical averages -> 0
        frames = two_phone_frames([0.8, 0.2])
        seg = PhoneSegment("p", 0, 2, INVENTORY)
        assert gop_utterance([seg], frames).utterance \
            == pytest.approx(0.0, abs=1e-12)

    def test_zero_posterior_raises_without_floor(self):
        frames = two_phone_frames([1.0, 1.0])
        seg = PhoneSegment("q", 0, 2, INVENTORY)
        with pytest.raises(ZeroPosteriorError):
            gop_utterance([seg], frames)

    def test_zero_posterior_floored_on_request(self):
        frames = two_phone_frames([1.0, 1.0])
        seg = PhoneSegment("q", 0, 2, INVENTORY)
        value = gop_utterance([seg], frames, floor=True).utterance
        assert value == pytest.approx(math.log(1e-10), abs=1e-9)

    def test_missing_frame_rejected(self):
        frames = two_phone_frames([0.5])
        seg = PhoneSegment("p", 0, 2, INVENTORY)
        with pytest.raises(SchemaError):
            gop_utterance([seg], frames)

    def test_multi_state_phones_sum_their_states(self):
        inventory = {"p": ["p1", "p2"], "q": ["q1"]}
        frames = frames_from_rows([{"p1": 0.3, "p2": 0.3, "q1": 0.4}],
                                  inventory)
        seg = PhoneSegment("p", 0, 1, inventory)
        assert gop_utterance([seg], frames).utterance \
            == pytest.approx(0.0, abs=1e-12)

    def test_never_positive_and_zero_iff_argmax(self):
        rng = np.random.default_rng(5)
        inventory = {f"r{i}": [f"r{i}_s"] for i in range(6)}
        phones = sorted(inventory)
        for _ in range(2000):
            n_frames = rng.integers(1, 6)
            mat = rng.random((n_frames, 6))
            mat /= mat.sum(axis=1, keepdims=True)
            frames = frames_from_rows(
                [dict(zip([f"{p}_s" for p in phones], row.tolist()))
                 for row in mat], inventory)
            target = phones[int(rng.integers(0, 6))]
            seg = PhoneSegment(target, 0, int(n_frames), inventory)
            score = gop_utterance([seg], frames).utterance
            assert score <= 1e-12
            avg = np.log(mat).mean(axis=0)
            is_argmax = np.argmax(avg) == phones.index(target)
            assert (abs(score) < 1e-12) == is_argmax

    def test_invariant_to_common_posterior_scaling(self):
        inventory = {"p": ["ps"], "q": ["qs"], "r": ["rs"]}
        states = ("ps", "qs", "rs")
        rows = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        seg = PhoneSegment("p", 0, 2, inventory)
        base = gop_utterance(
            [seg], UtterancePosteriors(states, [0, 1], rows)).utterance
        scaled = UtterancePosteriors(states, [0, 1], 0.5 * rows)
        assert gop_utterance([seg], scaled).utterance \
            == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("phone, t_s, t_e, words", [
    ("p", "1", 2, "segment 'p': t_s '1' is not an integer"),
    ("p", 0.5, 2, "segment 'p': t_s 0.5 is not an integer"),
    ("p", True, 2, "segment 'p': t_s True is not an integer"),
    ("p", 1, "2", "segment 'p': t_e '2' is not an integer"),
    (["p"], 1, 2, "phone ['p'] is not a string"),
    ("p", 2, 2, "segment 'p': t_e 2 <= t_s 2"),
    ("x", 1, 2, "phone 'x' not in inventory"),
], ids=["string-t_s", "float-t_s", "bool-t_s", "string-t_e", "list-phone",
        "empty-span", "unknown-phone"])
def test_invalid_segment_is_rejected_when_built(phone, t_s, t_e, words):
    """Building the segment raises what ``parse_segments`` names its
    line with."""
    with pytest.raises(SchemaError) as built:
        PhoneSegment(phone, t_s, t_e, INVENTORY)
    assert str(built.value) == words
    lines = [json.dumps({"utterance_id": "u", "phone": ph, "t_s": s,
                         "t_e": e})
             for ph, s, e in (("p", 0, 1), (phone, t_s, t_e))]
    with pytest.raises(SchemaError) as parsed:
        covariates.parse_segments(lines, INVENTORY)
    assert str(parsed.value) == f"line 2: {words}"


class TestGopUtterance:
    def test_single_zero_segment(self):
        frames = two_phone_frames([0.8])
        seg = PhoneSegment("p", 0, 1, INVENTORY)
        score = gop_utterance([seg], frames)
        assert score.utterance == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_phone_scores(self):
        frames = two_phone_frames([0.8, 0.2])
        segs = [PhoneSegment("p", 0, 1, INVENTORY),
                PhoneSegment("p", 1, 2, INVENTORY)]
        score = gop_utterance(segs, frames)
        assert score.phone_scores[0][1] == pytest.approx(0.0, abs=1e-12)
        assert score.phone_scores[1][1] == pytest.approx(math.log(0.25),
                                                         abs=1e-9)
        assert score.utterance == pytest.approx(math.log(0.25) / 2, abs=1e-9)

    def test_empty_segments(self):
        with pytest.raises(EmptyInputError):
            gop_utterance([], covariates.NO_FRAMES)

    def test_no_frames_names_the_first_t(self):
        seg = PhoneSegment("p", 2, 4, INVENTORY)
        with pytest.raises(SchemaError, match="no posterior frame for t=2"):
            gop_utterance([seg], covariates.NO_FRAMES)

    def test_posteriors_read_once_for_all_segments(self):
        class CountedPosteriors:
            reads = 0

            def __init__(self, frames):
                self.frames, self.states, self.ts = \
                    frames, frames.states, frames.ts

            @property
            def probs(self):
                CountedPosteriors.reads += 1
                return self.frames.probs

        frames = two_phone_frames([0.8, 0.2, 0.6])
        segs = [PhoneSegment("p", t, t + 1, INVENTORY) for t in range(3)]
        score = gop_utterance(segs, CountedPosteriors(frames))
        assert CountedPosteriors.reads == 1
        assert score == gop_utterance(segs, frames)

    def test_segments_share_one_inventory(self):
        frames = two_phone_frames([0.8])
        segs = [PhoneSegment("p", 0, 1, INVENTORY),
                PhoneSegment("p", 0, 1, {"p": ["p_s1"]})]
        with pytest.raises(SchemaError, match="one phone inventory"):
            gop_utterance(segs, frames)


class TestInventory:
    """An inventory is read as ``ingest.read_labels`` reads declared
    labels, before any line of either file."""

    def test_integer_state_matches_its_frame_key(self):
        inventory = {"p": [5], "q": ["q_s"]}
        frames = frames_from_rows([{"5": 0.75, "q_s": 0.25}], inventory)
        assert frames.states == ("5", "q_s")
        assert frames.probs.tolist() == [[0.75, 0.25]]
        (segments,) = covariates.parse_segments([json.dumps(
            {"utterance_id": "u", "phone": "p", "t_s": 0, "t_e": 1})],
            inventory).values()
        assert gop_utterance(segments, frames).utterance == 0.0

    @pytest.mark.parametrize("states", [["p_s", "p_s"], [1, "1"]],
                             ids=["text-twice", "integer-and-its-text"])
    @pytest.mark.parametrize("parse", [parse_posterior_frames,
                                       covariates.parse_segments],
                             ids=["posteriors", "segments"])
    def test_state_listed_twice_is_e_schema_naming_the_phone(self, parse,
                                                              states):
        # read as given, the state's posterior would be added twice
        with pytest.raises(SchemaError) as err:
            parse(["not read"], {"p": states, "q": ["q_s"]})
        assert str(err.value) == "phone 'p': duplicate states"


class TestParsePosteriorFrames:
    INVENTORY = {"p": ["p_s1"]}

    @staticmethod
    def line(utt_id, t, p=1.0):
        return json.dumps({"utterance_id": utt_id, "t": t,
                           "probs": {"p_s1": p}}) + "\n"

    def parse(self, lines):
        return parse_posterior_frames(lines, self.INVENTORY)

    def test_frames_sorted_by_t_per_utterance(self):
        frames = self.parse([
            self.line("u1", 1), self.line("u2", 0), self.line("u1", 0)])
        assert list(frames) == ["u1", "u2"]
        assert frames["u1"].ts == [0, 1]

    def test_repeated_frame_rejected_naming_line_utterance_and_t(self):
        lines = [self.line("u1", 0), self.line("u2", 0), self.line("u1", 1),
                 self.line("u1", 0, p=1.0)]
        with pytest.raises(SchemaError) as err:
            self.parse(lines)
        message = str(err.value)
        assert "line 4" in message
        assert "'u1'" in message and "t=0" in message

    def test_one_array_per_utterance_in_inventory_state_order(self):
        inventory = {"a": ["a1", "a2"], "b": ["b1", "a2"]}
        lines = [json.dumps({"utterance_id": "u", "t": t,
                             "probs": {"b1": 0.25, "x": 0.25, "a1": 0.5}})
                 for t in (4, 2)]
        (frames,) = parse_posterior_frames(lines, inventory).values()
        assert frames.states == ("a1", "a2", "b1")
        assert frames.ts == [2, 4]
        assert frames.probs.dtype == np.float64
        assert frames.probs.tolist() == [[0.5, 0.0, 0.25]] * 2

    @pytest.mark.parametrize("flag", ["", ', "flag": true'],
                             ids=["one-decode", "line-by-line"])
    def test_interleaved_utterances(self, flag, monkeypatch):
        order = [("a", 0), ("b", 0), ("a", 1), ("a", 2), ("b", 2), ("c", 5),
                 ("a", 3), ("b", 4)]
        checked = []
        monkeypatch.setattr(covariates, "_check_frame",
                            lambda *args: checked.append(args))
        lines = [json.dumps({"utterance_id": u, "t": t,
                             "probs": {"p_s1": 0.5, "q": 0.5}})[:-1]
                 + flag + "}" for u, t in order]
        for i, (u, t) in enumerate(order):
            lines[i] = lines[i].replace('"p_s1": 0.5, "q": 0.5',
                                        f'"p_s1": {i / 8}, "q": {1 - i / 8}')
        frames = self.parse(lines)
        assert list(frames) == ["a", "b", "c"]
        for utt_id in frames:
            expected = sorted((t, i / 8) for i, (u, t) in enumerate(order)
                              if u == utt_id)
            assert frames[utt_id].ts == [t for t, _ in expected]
            assert frames[utt_id].probs.tolist() == [[p] for _, p in expected]
        assert len(checked) == (len(order) if flag else 0)

    def test_out_of_order_chunk_is_read_in_one_decode(self, monkeypatch):
        checked = []
        monkeypatch.setattr(covariates, "_check_frame",
                            lambda *args: checked.append(args))
        lines = [json.dumps({"utterance_id": "u", "t": t,
                             "probs": {"p_s1": t / 4, "q": 1 - t / 4}})
                 for t in (0, 2, 1, 3)]
        frames = self.parse(lines)["u"]
        assert frames.ts == [0, 1, 2, 3]
        assert frames.probs.tolist() == [[0.0], [0.25], [0.5], [0.75]]
        assert checked == []

    def test_repeat_in_a_one_decode_chunk_names_its_line(self, monkeypatch):
        checked = []
        monkeypatch.setattr(covariates, "_check_frame",
                            lambda *args: checked.append(args))
        lines = [self.line("u", t) for t in (0, 2, 1, 2, 3)]
        with pytest.raises(SchemaError) as err:
            self.parse(lines)
        assert str(err.value) \
            == "line 4: utterance 'u': a second frame for t=2"
        assert checked == []

    def test_chunks_and_repeats_across_them(self, monkeypatch):
        monkeypatch.setattr(covariates, "_CHUNK_LINES", 3)
        lines = [self.line("u", t) for t in (0, 1, 2, 3, 5, 4, 6)]
        assert self.parse(lines)["u"].ts == [0, 1, 2, 3, 4, 5, 6]
        with pytest.raises(SchemaError, match="line 8: .*t=2"):
            self.parse(lines + [self.line("u", 2)])

    @pytest.mark.parametrize("head, tail", [
        ('{"utterance_id": "u", "t": 0, "probs": {"p_s1": 1.0}, '
         '"x": [1, {"a": 1}',
         '{"b": 2}]}, {"utterance_id": "u", "t": 1, '
         '"probs": {"p_s1": 1.0}}'),
        ('{"utterance_id": "u", "t": 0, "probs": {"p_s1": 1.0}}, true], '
         '[{"utterance_id": "u", "t": 1, "probs": {"p_s1": 1.0}, "x": [[0',
         '1]]}'),
        ('{"utterance_id": "u", "t": 0, "probs": {"p_s1": 1.0}, "x": [[0',
         '1]]}'),
    ], ids=["comma-joined", "pair-wrapped", "one-pair-for-two"])
    def test_lines_that_read_as_frames_only_together(self, head, tail):
        """Two lines, each invalid JSON, whose text joined by a comma,
        or wrapped as the one-decode reader wraps lines, holds two valid
        frames."""
        with pytest.raises(SchemaError, match="line 1: invalid JSON"):
            self.parse([head + "\n", tail + "\n"])


def _frame(**fields):
    frame = {"utterance_id": "u", "t": 2, "probs": {"p_s1": 1.0, "x": 0.0}}
    frame.update(fields)
    return json.dumps(frame)


def _probs(p, x):
    return {"probs": {"p_s1": p, "x": x}}


class TestFrameErrorsNameTheLine:
    """Every malformed frame is E_SCHEMA naming its line, whichever
    reader the chunk takes."""

    GOOD = [_frame(t=0), _frame(t=1)]

    @pytest.mark.parametrize("bad, words", [
        (_frame(t="2"), "frame index '2' is not an integer"),
        (_frame(t=2.0), "frame index 2.0 is not an integer"),
        (_frame(t=True), "frame index True is not an integer"),
        (_frame(t=-1), "frame index -1 is negative"),
        (_frame(probs=[1.0, 0.0]), "frame 2: 'probs' must be an object"),
        (_frame(**_probs("1", 0.0)), "P('p_s1') = '1' is not a number"),
        (_frame(**_probs(1.0, False)), "P('x') = False is not a number"),
        (_frame(**_probs(None, 1.0)), "P('p_s1') = None is not a number"),
        (_frame(**_probs(1.5, -0.5)), "P('p_s1') = 1.5 outside [0, 1]"),
        (_frame(**_probs(1.0, -0.0001)), "P('x') = -0.0001 outside [0, 1]"),
        (_frame(**_probs(0.9, 0.0)), "frame 2: posteriors sum to 0.9"),
        (_frame(probs={}), "frame 2: posteriors sum to 0.0"),
        (_frame(probs={"x": 0.0, "p_s1": 1.0}), None),
        (_frame(**_probs(0.5, math.nan)), "P('x') = nan outside [0, 1]"),
        (_frame(**_probs(math.inf, 0.0)), "P('p_s1') = inf outside [0, 1]"),
        (_frame(**_probs(10 ** 400, 0)), "outside [0, 1]"),
        (_frame(t=1), "utterance 'u': a second frame for t=1"),
        ('{"utterance_id": "u", "t": %s, "probs": {"p_s1": 1.0}}'
         % ("9" * 5001), "an integer has more than 4300 digits"),
        ('{"utterance_id": "u", "t": 2, "probs": {"p_s1": 1.0}',
         "invalid JSON"),
        ('["u", 2]', "line must be a JSON object"),
        ('{"t": 2, "probs": {"p_s1": 1.0}}', "missing field 'utterance_id'"),
        ('{"utterance_id": "u", "probs": {"p_s1": 1.0}}',
         "missing field 't'"),
        (_frame(utterance_id=7), "'utterance_id' must be a string"),
    ], ids=["string-t", "float-t", "bool-t", "negative-t", "list-probs",
            "string-p", "bool-p", "null-p", "above-one", "below-zero",
            "sum", "no-states", "other-key-order", "nan", "infinity",
            "int-beyond-float", "repeated-t", "5001-digit-t", "truncated",
            "not-object", "no-utterance", "no-t", "int-utterance"])
    @pytest.mark.parametrize("tail", [[], ["{"]],
                             ids=["one-decode", "invalid-json-after"])
    def test_error_names_the_line(self, bad, words, tail):
        lines = self.GOOD + [bad] + [_frame(t=3)] + tail
        if words is None:   # a valid frame: the error is in the tail
            if not tail:
                assert parse_posterior_frames(lines, INVENTORY)["u"].ts \
                    == [0, 1, 2, 3]
                return
            bad_line, words = 5, "invalid JSON"
        else:
            bad_line = 3
        with pytest.raises(SchemaError) as err:
            parse_posterior_frames(lines, INVENTORY)
        assert str(err.value).startswith(f"line {bad_line}: ")
        assert words in str(err.value)

    def test_first_bad_line_wins_across_checks(self):
        lines = [_frame(t=0), _frame(t=1, probs={"p_s1": 0.5}), "{"]
        with pytest.raises(SchemaError, match="^line 2: .*sum to 0.5"):
            parse_posterior_frames(lines, INVENTORY)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals(self, literal):
        lines = self.GOOD + ['{"utterance_id": "u", "t": 2, '
                             '"probs": {"p_s1": %s}}' % literal]
        with pytest.raises(SchemaError, match="^line 3: .*outside"):
            parse_posterior_frames(lines, INVENTORY)


class TestLongIntegersAtTheCli:
    """An integer past Python's digit limit is E_SCHEMA naming the line,
    not a traceback."""

    def test_posterior_t(self, tmp_path, capsys):
        (tmp_path / "r.jsonl").write_text(json.dumps(
            {"id": "u1", "speaker_id": "s", "reference": "hi",
             "hypotheses": {"m": "hi"}}) + "\n")
        (tmp_path / "inv.json").write_text(json.dumps({"p": ["p_s1"]}))
        (tmp_path / "seg.jsonl").write_text(json.dumps(
            {"utterance_id": "u1", "phone": "p", "t_s": 0, "t_e": 1}) + "\n")
        (tmp_path / "post.jsonl").write_text(
            _frame(utterance_id="u1", t=0) + "\n"
            + '{"utterance_id": "u1", "t": %s, "probs": {"p_s1": 1.0}}\n'
            % ("7" * 5001))
        assert cli.main(["covariates", "--in", str(tmp_path / "r.jsonl"),
                         "--out", str(tmp_path / "c.jsonl"),
                         "--posteriors", str(tmp_path / "post.jsonl"),
                         "--segments", str(tmp_path / "seg.jsonl"),
                         "--inventory", str(tmp_path / "inv.json")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "E_SCHEMA"
        assert diagnostic["message"].startswith("line 2: ")

    def test_record_snr_db(self, tmp_path, capsys):
        (tmp_path / "r.jsonl").write_text(
            '{"id": "u0", "speaker_id": "s", "reference": "hi", '
            '"hypotheses": {"m": "hi"}}\n'
            '{"id": "u1", "speaker_id": "s", "reference": "hi", '
            '"hypotheses": {"m": "hi"}, "snr_db": %s}\n' % ("1" * 5001))
        assert cli.main(["covariates", "--in", str(tmp_path / "r.jsonl"),
                         "--out", str(tmp_path / "c.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "E_SCHEMA"
        assert diagnostic["message"].startswith("line 2: ")


TABLE = FrequencyTable.from_counts({"the": 50, "cat": 10})


class TestRarity:
    def test_unseen_word_gets_smoothing_floor(self):
        assert word_rarity("zyzzyva", TABLE) == pytest.approx(4.127134,
                                                              abs=1e-6)

    def test_seen_word(self):
        assert word_rarity("the", TABLE) == pytest.approx(0.195309, abs=1e-6)

    def test_monotone_decreasing_in_count(self):
        assert word_rarity("the", TABLE) < word_rarity("cat", TABLE) \
            < word_rarity("zyzzyva", TABLE)

    def test_strictly_decreasing_property(self):
        for count in range(0, 50, 7):
            t1 = FrequencyTable.from_counts({"w": count, "x": 5})
            t2 = FrequencyTable.from_counts({"w": count + 1, "x": 5})
            assert word_rarity("w", t2) < word_rarity("w", t1)


class TestSentenceDifficulty:
    def test_single_word(self):
        assert sentence_difficulty(["the"], TABLE) \
            == pytest.approx(word_rarity("the", TABLE))

    def test_mean_of_two(self):
        # -ln(51/62) = 0.195309, -ln(11/62) = 1.729239, mean 0.962274
        expected = (-math.log(51 / 62) - math.log(11 / 62)) / 2
        assert sentence_difficulty(["the", "cat"], TABLE) \
            == pytest.approx(expected, abs=1e-12)
        assert sentence_difficulty(["the", "cat"], TABLE) \
            == pytest.approx(0.962274, abs=1e-6)

    def test_between_min_and_max(self):
        words = ["the", "cat", "zyzzyva"]
        score = sentence_difficulty(words, TABLE)
        rarities = [word_rarity(w, TABLE) for w in words]
        assert min(rarities) <= score <= max(rarities)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            sentence_difficulty([], TABLE)


class TestWordCount:
    def test_examples(self):
        assert word_count("The cat sat.") == 3
        assert word_count("") == 0
        assert word_count("don't stop") == 2


class TestEstimateSnr:
    def test_constant_amplitude_is_zero_db(self):
        samples = np.full(16000, 0.25)
        assert estimate_snr(samples, 16000) == pytest.approx(0.0, abs=1e-9)

    def test_loud_tone_over_silence_clips_at_60(self):
        t = np.arange(16000) / 16000
        tone = 0.5 * np.sin(2 * np.pi * 440 * t)
        tone[:8000] = 0.0
        assert estimate_snr(tone, 16000) == 60.0

    def test_known_mixture_within_3_db(self):
        rng = np.random.default_rng(11)
        rate = 16000
        n = 2 * rate
        noise_sigma = 0.01
        tone_amp = math.sqrt(2 * (noise_sigma ** 2) * 10.0)  # 10 dB over noise
        t = np.arange(n) / rate
        signal = tone_amp * np.sin(2 * np.pi * 300 * t)
        signal[: n // 4] = 0.0
        signal[-n // 4:] = 0.0
        mixture = signal + noise_sigma * rng.standard_normal(n)
        assert estimate_snr(mixture, rate) == pytest.approx(10.0, abs=3.0)

    def test_invariant_to_amplitude_scaling(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8000) * np.linspace(0.1, 1.0, 8000)
        a = estimate_snr(x, 16000)
        b = estimate_snr(x * 7.5, 16000)
        assert a == pytest.approx(b, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            estimate_snr(np.ones(100), 16000)

    def test_silent(self):
        with pytest.raises(SilentAudioError):
            estimate_snr(np.zeros(16000), 16000)

    @pytest.mark.parametrize("rate", [0, -16000])
    def test_rate_not_above_zero_rejected(self, rate):
        x = np.random.default_rng(0).standard_normal(16000)
        with pytest.raises(SchemaError,
                           match=f"^sample rate {rate} is not above 0$"):
            estimate_snr(x, rate)
        assert estimate_snr(x, 16000) == pytest.approx(0.7527, abs=5e-5)


class TestAudioIo:
    def test_wav_round_trip(self, tmp_path):
        import wave

        rng = np.random.default_rng(0)
        pcm = (rng.uniform(-0.5, 0.5, 1600) * 32767).astype("<i2")
        path = tmp_path / "clip.wav"
        with wave.open(str(path), "wb") as out:
            out.setnchannels(1)
            out.setsampwidth(2)
            out.setframerate(16000)
            out.writeframes(pcm.tobytes())
        samples, rate = covariates.read_audio(str(path))
        assert rate == 16000
        assert samples.shape == (1600,)
        assert np.allclose(samples, pcm / 32768.0)

    def test_raw_needs_sample_rate(self, tmp_path):
        path = tmp_path / "clip.raw"
        path.write_bytes(b"\x00\x01" * 100)
        with pytest.raises(SchemaError):
            covariates.read_audio(str(path))
        samples, rate = covariates.read_audio(str(path), 8000)
        assert rate == 8000
        assert samples.shape == (100,)

    @pytest.mark.parametrize("name, channels, width, message", [
        ("clip.wav", 2, 2, "need 16-bit mono PCM"),
        ("clip.wav", 1, 1, "need 16-bit mono PCM"),
        ("clip.raw", None, None, "odd byte count for 16-bit PCM"),
    ], ids=["stereo-wav", "8-bit-wav", "odd-length-raw"])
    def test_refusals(self, tmp_path, name, channels, width, message):
        import wave

        path = tmp_path / name
        if channels is None:
            path.write_bytes(b"\x00\x01" * 100 + b"\x00")
        else:
            with wave.open(str(path), "wb") as out:
                out.setnchannels(channels)
                out.setsampwidth(width)
                out.setframerate(16000)
                out.writeframes(b"\x00\x01" * 100)
        with pytest.raises(SchemaError) as caught:
            covariates.read_audio(str(path), 16000)
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name, content, error, message", [
        ("clip.wav", b"not a riff file", SchemaError,
         "{path}: not a WAV file: file does not start with RIFF id"),
        ("clip.wav", b"RIFF", SchemaError,
         "{path}: not a WAV file: it ends inside its header"),
        ("clip.wav", b"RIFF\x04\x00\x00\x00WAVE", SchemaError,
         "{path}: not a WAV file: fmt chunk and/or data chunk missing"),
        ("clip.wav", "cut", SchemaError,
         "{path}: odd byte count for 16-bit PCM"),
        ("clip.wav", None, IoError,
         "cannot read {path}: [Errno 21] Is a directory: '{path}'"),
        ("clip.raw", None, IoError,
         "cannot read {path}: [Errno 21] Is a directory: '{path}'"),
    ], ids=["not-riff", "riff-only", "no-fmt-chunk", "wav-cut-mid-sample",
            "wav-directory", "raw-directory"])
    def test_unreadable_files(self, tmp_path, name, content, error, message):
        import wave

        path = tmp_path / name
        if content is None:
            path.mkdir()
        elif content == "cut":
            with wave.open(str(path), "wb") as out:
                out.setnchannels(1)
                out.setsampwidth(2)
                out.setframerate(16000)
                out.writeframes(b"\x00\x01" * 100)
            path.write_bytes(path.read_bytes()[:-1])
        else:
            path.write_bytes(content)
        with pytest.raises(error) as caught:
            covariates.read_audio(str(path), 16000)
        assert str(caught.value) == message.format(path=path)
