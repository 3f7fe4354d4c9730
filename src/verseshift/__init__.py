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
    Documents,
    Stanza,
    TimeSlot,
    TimeSlotTable,
    Vocabulary,
    assign_slots,
    build_slots,
    build_vocab,
    dedup_first_line,
    ingest,
    load_lemma_map,
    load_normalized,
    load_stopwords,
    normalize,
)
from .linalg import PcaResult, pca
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
    Trajectories,
    TropeReport,
    build_trajectories,
    classify_trajectory,
    orient_components,
    trajectory_pca,
)

__version__ = "0.1.0"
