"""Extractive-compressive single-document summarization.

Sentences are selected with a pointer-style scorer, syntax-derived
compression options are classified for deletion, and training supervision
comes from beam-search oracles scored against reference summaries.
"""

from .corpus import Document, load_corpus, write_corpus
from .features import (
    DecoderState,
    DocumentContext,
    advance_state,
    featurize_option,
    initial_state,
)
from .model import (
    Model,
    TrainConfig,
    TrainingExample,
    classify_option,
    decode_greedy,
    gradient_check,
    init_model,
    load_model,
    loss_joint,
    models_equal,
    save_model,
    score_remaining,
    train,
)
from .oracle import (
    CompressabilityBucket,
    CompressionLabel,
    DocumentOracles,
    LabeledOption,
    OracleCandidate,
    OracleConfig,
    beam_search_oracle,
    build_document_oracles,
    compressability_report,
    exhaustive_oracle,
    label_compressions,
    read_oracle_cache,
    select_training_oracles,
    write_oracle_cache,
)
from .pipeline import (
    AppliedDeletion,
    Summary,
    SummarizeConfig,
    apply_threshold,
    dedup_summary,
    evaluate_corpus,
    render,
    score_document,
    stats_report,
    summarize,
    sweep_threshold,
)
from .rouge import (
    PreprocessConfig,
    RougeScore,
    approx_oracle_score,
    preprocess_tokens,
    rouge_l,
    rouge_n,
)
from .rules import CompressionOption, RuleId, extract_options, normalize_options
from .treebank import (
    ParseError,
    SentenceTree,
    Span,
    TreeNode,
    parse_ptb,
    to_ptb,
)

__version__ = "0.1.0"
