import json
import math

import numpy as np
import pytest

from asrcausal import covariates
from asrcausal.covariates import (
    PhoneSegment,
    PosteriorFrame,
    estimate_snr,
    gop_phone,
    gop_utterance,
    parse_posterior_frames,
    sentence_difficulty,
    word_count,
    word_rarity,
)
from asrcausal.errors import (
    EmptyInputError,
    SchemaError,
    SilentAudioError,
    TooShortError,
    ZeroPosteriorError,
)
from asrcausal.ingest import FrequencyTable


INVENTORY = {"p": ["p_s1"], "q": ["q_s1"]}


def frames_from_rows(rows):
    """rows: per-frame dict state -> prob."""
    return [PosteriorFrame(t, probs).validate() for t, probs in enumerate(rows)]


def two_phone_frames(p_probs):
    return frames_from_rows([{"p_s1": p, "q_s1": 1.0 - p} for p in p_probs])


class TestGopPhone:
    def test_target_maximal_scores_zero(self):
        frames = two_phone_frames([0.8, 0.8])
        seg = PhoneSegment("p", 0, 2, INVENTORY)
        assert gop_phone(seg, frames) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_log_ratio(self):
        # ln 0.2 - ln 0.8 = ln 0.25
        frames = two_phone_frames([0.2, 0.2])
        seg = PhoneSegment("p", 0, 2, INVENTORY)
        assert gop_phone(seg, frames) == pytest.approx(math.log(0.25),
                                                       abs=1e-9)

    def test_equal_averaged_log_posteriors(self):
        # p: (0.8, 0.2), q: (0.2, 0.8) -> identical averages -> 0
        frames = two_phone_frames([0.8, 0.2])
        seg = PhoneSegment("p", 0, 2, INVENTORY)
        assert gop_phone(seg, frames) == pytest.approx(0.0, abs=1e-12)

    def test_zero_posterior_raises_without_floor(self):
        frames = two_phone_frames([1.0, 1.0])
        seg = PhoneSegment("q", 0, 2, INVENTORY)
        with pytest.raises(ZeroPosteriorError):
            gop_phone(seg, frames)

    def test_zero_posterior_floored_on_request(self):
        frames = two_phone_frames([1.0, 1.0])
        seg = PhoneSegment("q", 0, 2, INVENTORY)
        value = gop_phone(seg, frames, floor=True)
        assert value == pytest.approx(math.log(1e-10), abs=1e-9)

    def test_missing_frame_rejected(self):
        frames = two_phone_frames([0.5])
        seg = PhoneSegment("p", 0, 2, INVENTORY)
        with pytest.raises(SchemaError):
            gop_phone(seg, frames)

    def test_multi_state_phones_sum_their_states(self):
        inventory = {"p": ["p1", "p2"], "q": ["q1"]}
        frames = [PosteriorFrame(0, {"p1": 0.3, "p2": 0.3, "q1": 0.4}).validate()]
        seg = PhoneSegment("p", 0, 1, inventory)
        assert gop_phone(seg, frames) == pytest.approx(0.0, abs=1e-12)

    def test_never_positive_and_zero_iff_argmax(self):
        rng = np.random.default_rng(5)
        inventory = {f"r{i}": [f"r{i}_s"] for i in range(6)}
        phones = sorted(inventory)
        for _ in range(2000):
            n_frames = rng.integers(1, 6)
            mat = rng.random((n_frames, 6))
            mat /= mat.sum(axis=1, keepdims=True)
            frames = [PosteriorFrame(t, dict(zip([f"{p}_s" for p in phones],
                                                 row))).validate()
                      for t, row in enumerate(mat)]
            target = phones[int(rng.integers(0, 6))]
            seg = PhoneSegment(target, 0, int(n_frames), inventory)
            score = gop_phone(seg, frames)
            assert score <= 1e-12
            avg = np.log(mat).mean(axis=0)
            is_argmax = np.argmax(avg) == phones.index(target)
            assert (abs(score) < 1e-12) == is_argmax

    def test_invariant_to_common_posterior_scaling(self):
        inventory = {"p": ["ps"], "q": ["qs"], "r": ["rs"]}
        rows = [{"ps": 0.5, "qs": 0.3, "rs": 0.2},
                {"ps": 0.1, "qs": 0.6, "rs": 0.3}]
        seg = PhoneSegment("p", 0, 2, inventory)
        base = gop_phone(seg, [PosteriorFrame(t, r) for t, r in enumerate(rows)])
        scaled = [PosteriorFrame(t, {k: 0.5 * v for k, v in r.items()})
                  for t, r in enumerate(rows)]
        assert gop_phone(seg, scaled) == pytest.approx(base, abs=1e-12)


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
            gop_utterance([], [])

    def test_frames_keyed_once_for_all_segments(self):
        class CountedFrames(list):
            iterations = 0

            def __iter__(self):
                CountedFrames.iterations += 1
                return super().__iter__()

        frames = CountedFrames(two_phone_frames([0.8, 0.2, 0.6]))
        segs = [PhoneSegment("p", t, t + 1, INVENTORY) for t in range(3)]
        score = gop_utterance(segs, frames)
        assert CountedFrames.iterations == 1
        assert score == gop_utterance(segs, list(frames))


class TestParsePosteriorFrames:
    @staticmethod
    def line(utt_id, t, p=1.0):
        return json.dumps({"utterance_id": utt_id, "t": t,
                           "probs": {"p_s1": p}}) + "\n"

    def test_frames_sorted_by_t_per_utterance(self):
        frames = parse_posterior_frames([
            self.line("u1", 1), self.line("u2", 0), self.line("u1", 0)])
        assert list(frames) == ["u1", "u2"]
        assert [f.t for f in frames["u1"]] == [0, 1]

    def test_repeated_frame_rejected_naming_line_utterance_and_t(self):
        lines = [self.line("u1", 0), self.line("u2", 0), self.line("u1", 1),
                 self.line("u1", 0, p=1.0)]
        with pytest.raises(SchemaError) as err:
            parse_posterior_frames(lines)
        message = str(err.value)
        assert "line 4" in message
        assert "'u1'" in message and "t=0" in message


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
