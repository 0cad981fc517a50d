"""Vulnerability personas and their explanation-style instructions.

Two binary personas pair trait levels with an explanation style. They are
design constructs for conditioning tone, structure, and detail; nothing
here models or predicts individual users. Directive wording comes from a
fixed phrase bank, versioned in run manifests, that shares no vocabulary
with the synthetic corpus, so instructions can never leak into evidence.
"""

from __future__ import annotations

from enum import Enum

PHRASE_BANK_VERSION = "directives-v1"


class TraitLevel(Enum):
    LOW = "low"
    HIGH = "high"


class VulnerabilityLevel(Enum):
    HIGH_VULNERABILITY = "high"
    LOW_VULNERABILITY = "low"


# Trait assignments per persona: (conscientiousness, neuroticism, agreeableness).
TRAIT_TABLE: dict[VulnerabilityLevel, tuple[TraitLevel, TraitLevel, TraitLevel]] = {
    VulnerabilityLevel.HIGH_VULNERABILITY: (TraitLevel.LOW, TraitLevel.HIGH, TraitLevel.HIGH),
    VulnerabilityLevel.LOW_VULNERABILITY: (TraitLevel.HIGH, TraitLevel.LOW, TraitLevel.LOW),
}

# Phrase bank. Neuroticism sets emotional tone, conscientiousness sets
# explanation granularity, agreeableness sets framing.
TONE = {
    TraitLevel.HIGH: "Use a calm, reassuring tone and avoid alarming wording.",
    TraitLevel.LOW: "Use a neutral, direct tone.",
}
DETAIL = {
    TraitLevel.LOW: (
        "Explain in plain language with contextual, step-by-step guidance the reader can follow."
    ),
    TraitLevel.HIGH: (
        "Keep the explanation concise and analytical, and foreground the explicit evidence terms."
    ),
}
FRAMING = {
    TraitLevel.HIGH: "Speak to the reader in a supportive second-person voice.",
    TraitLevel.LOW: "Frame the assessment impersonally, centered on observable properties.",
}


def build_instruction(level: VulnerabilityLevel) -> str:
    """The persona's style instruction: its tone, detail and framing directives."""
    conscientiousness, neuroticism, agreeableness = TRAIT_TABLE[level]
    return f"{TONE[neuroticism]} {DETAIL[conscientiousness]} {FRAMING[agreeableness]}"
