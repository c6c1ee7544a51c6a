"""Extractive-compressive single-document summarization.

Sentences are selected with a pointer-style scorer, syntax-derived
compression options are classified for deletion, and training supervision
comes from beam-search oracles scored against reference summaries.
"""

from __future__ import annotations

from .corpus import Document, load_corpus
from .model import TrainConfig, train
from .oracle import OracleConfig, build_document_oracles
from .pipeline import SummarizeConfig, render, score_document, summarize
from .treebank import parse_ptb

__version__ = "0.1.0"
