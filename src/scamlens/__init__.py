"""Scam-message explanation pipeline.

A differentiable detector with read-only weights provides embedding-space
attributions for messages it classifies as scams; ranked evidence words
ground natural language explanations generated under four conditions
(with and without evidence, with two persona styles), which are scored for
faithfulness, entailment-based correctness, and readability.
"""

__version__ = "0.1.0"

from .attribution import AttributionConfig, EvidenceSet, filter_evidence, gradient_shap
from .corpus import Channel, Label, Message, MessageSet, format_input, synth_corpus
from .detector import DetectorModel, TrainConfig, macro_f1, train
from .evaluation import EvaluationConfig, MetricReport, correctness, faithfulness, fkgl
from .generation import Condition, Explanation, Prompt, build_prompt, mock_generate
from .persona import VulnerabilityLevel, build_instruction

__all__ = [
    "__version__",
    "AttributionConfig",
    "Channel",
    "Condition",
    "DetectorModel",
    "EvaluationConfig",
    "EvidenceSet",
    "Explanation",
    "Label",
    "Message",
    "MessageSet",
    "MetricReport",
    "Prompt",
    "TrainConfig",
    "VulnerabilityLevel",
    "build_instruction",
    "build_prompt",
    "correctness",
    "faithfulness",
    "filter_evidence",
    "fkgl",
    "format_input",
    "gradient_shap",
    "macro_f1",
    "mock_generate",
    "synth_corpus",
    "train",
]
