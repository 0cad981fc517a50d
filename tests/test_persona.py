from __future__ import annotations

import string

from scamlens.corpus import Label, format_input, synth_corpus
from scamlens.lexicon import STOPWORDS
from scamlens.persona import (
    DETAIL,
    FRAMING,
    TONE,
    TRAIT_TABLE,
    TraitLevel,
    VulnerabilityLevel,
    build_instruction,
)


class TestTraitTable:
    def test_high_vulnerability_traits(self):
        conscientiousness, neuroticism, agreeableness = TRAIT_TABLE[
            VulnerabilityLevel.HIGH_VULNERABILITY
        ]
        assert conscientiousness is TraitLevel.LOW
        assert neuroticism is TraitLevel.HIGH
        assert agreeableness is TraitLevel.HIGH

    def test_low_vulnerability_traits(self):
        conscientiousness, neuroticism, agreeableness = TRAIT_TABLE[
            VulnerabilityLevel.LOW_VULNERABILITY
        ]
        assert conscientiousness is TraitLevel.HIGH
        assert neuroticism is TraitLevel.LOW
        assert agreeableness is TraitLevel.LOW


class TestBuildInstruction:
    def test_high_vulnerability_gets_calm_supportive_contextual_style(self):
        rendered = build_instruction(VulnerabilityLevel.HIGH_VULNERABILITY).lower()
        assert "calm" in rendered
        assert "supportive" in rendered
        assert "contextual" in rendered

    def test_low_vulnerability_gets_concise_analytical_evidence_style(self):
        rendered = build_instruction(VulnerabilityLevel.LOW_VULNERABILITY).lower()
        assert "concise" in rendered
        assert "analytical" in rendered
        assert "evidence" in rendered

    def test_personas_render_distinct_instructions(self):
        high = build_instruction(VulnerabilityLevel.HIGH_VULNERABILITY)
        low = build_instruction(VulnerabilityLevel.LOW_VULNERABILITY)
        assert high != low

    def test_deterministic(self):
        level = VulnerabilityLevel.HIGH_VULNERABILITY
        assert build_instruction(level) == build_instruction(level)

    def test_rendered_concatenates_all_three_directives(self):
        # Tone follows neuroticism, detail conscientiousness and framing
        # agreeableness, in that order.
        for level, (conscientiousness, neuroticism, agreeableness) in TRAIT_TABLE.items():
            directives = (TONE[neuroticism], DETAIL[conscientiousness], FRAMING[agreeableness])
            assert build_instruction(level) == " ".join(directives)

    def test_directives_share_no_content_words_with_scam_corpus(self):
        # Evidence words always come from scam message text, so directive
        # wording must stay disjoint from the scam templates' content words.
        scam_words = set()
        for message in synth_corpus(seed=7, per_channel_per_label=5):
            if message.label is not Label.SCAM:
                continue
            for token in format_input(message).text.split():
                word = token.lower().strip(string.punctuation)
                if word and word not in STOPWORDS:
                    scam_words.add(word)
        for level in VulnerabilityLevel:
            rendered = build_instruction(level)
            directive_words = {
                t.lower().strip(string.punctuation)
                for t in rendered.split()
                if t.lower().strip(string.punctuation) not in STOPWORDS
            }
            assert not directive_words & scam_words
