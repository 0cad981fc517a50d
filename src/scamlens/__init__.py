"""Scam-message explanation pipeline.

A differentiable detector with read-only weights provides embedding-space
attributions for messages it classifies as scams; ranked evidence words
ground natural language explanations generated under four conditions
(with and without evidence, with two persona styles), which are scored for
faithfulness, entailment-based correctness, and readability.

The package binds only `__version__`; import each name from its module,
as in `from scamlens import corpus, detector, attribution, persona,
generation, evaluation, cli`.
"""

__version__ = "0.1.0"
