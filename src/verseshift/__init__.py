"""Time-conditioned word embeddings and semantic-change analyses for stanza corpora."""

from .analysis import (
    DistributionSummary,
    FrequencyBands,
    LinearFit,
    SelfSimSeries,
    TotalSelfSim,
    detect_change_points,
    frequency_bands,
    linearity_fit,
    pairwise_self_similarity,
    total_self_similarity,
)
from .corpus import (
    CorpusError,
    SlotAssignment,
    Stanza,
    TimeSlot,
    TimeSlotTable,
    Vocabulary,
    assign_slots,
    build_slots,
    build_vocab,
    build_vocab_from_tokens,
    dedup_first_line,
    ingest,
    load_lemma_map,
    load_stopwords,
    normalize,
)
from .linalg import PcaResult, cosine_similarity, pca
from .synthgen import PlantedWord, SynthSpec, generate, generate_jsonl, load_spec
from .trainer import (
    JointEmbeddingModel,
    ModelFormatError,
    NumericError,
    TrainConfig,
    load_model,
    save_model,
    train,
)
from .tropes import (
    SimilarityTrajectory,
    TropeReport,
    build_trajectories,
    classify_trajectory,
    orient_components,
    trajectory_pca,
)

__version__ = "0.1.0"
