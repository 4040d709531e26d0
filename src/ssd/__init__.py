"""Social support detection: corpus handling, lexicon and TF-IDF features,
from-scratch classifiers with voting, stratified evaluation, and a
three-stage hierarchical labeling cascade."""

from .cascade import (
    CascadeModel,
    cascade_predict,
    cascade_predict_batch,
    evaluate_cascade,
    load_cascade,
    save_cascade,
    train_cascade,
)
from .corpus import (
    Comment,
    Dataset,
    DatasetItem,
    GROUP_LABELS,
    HierLabel,
    SUPPORT_LABELS,
    TARGET_LABELS,
    dataset_stats,
    load_dataset,
    stage_view,
    stratified_kfold,
    stratified_kfold_labels,
    write_dataset,
)
from .errors import (
    CredentialError,
    DataError,
    ExternalServiceError,
    FormatError,
    NetworkError,
    SsdError,
    UsageError,
)
from .evaluation import (
    ConfusionMatrix,
    CVReport,
    MetricsReport,
    ProfileReport,
    cohens_kappa,
    confusion_matrix,
    cross_validate,
    prf_scores,
    profile_features,
    score_labels,
    write_cv_artifacts,
)
from .features import (
    CategoryLexicon,
    EmotionLexicon,
    TfidfVectorizer,
    ValenceLexicon,
    combine_features,
    emotion_features,
    fit_tfidf,
    liwc_features,
    load_category_lexicon,
    load_emotion_lexicon,
    load_valence_lexicon,
    sentiment_scores,
    transform_tfidf,
    transform_tfidf_corpus,
)
from .ingest import (
    RawComment,
    SamplePlan,
    dedup_and_filter,
    fetch_comments,
    keyword_sample,
)
from .models import (
    ModelSpec,
    TrainedModel,
    VotingModel,
    load_model,
    make_spec,
    make_voting,
    predict,
    predict_proba,
    save_model,
    train_dt,
    train_lr,
    train_rf,
    train_svm_linear,
    train_svm_rbf,
)
from .pipeline import (
    ExperimentConfig,
    FittedPipeline,
    LexiconSet,
    fit_pipeline,
    load_experiment_config,
    load_pipeline,
    predict_pipeline,
    save_pipeline,
)
from .porter import stem
from .preprocess import PreprocessConfig, default_config, normalize

__version__ = "0.1.0"
