"""Trigger-set watermarking of feature-extractor models: embed binary
messages into noisy trigger representations, extract them from suspect
models, and decide ownership with calibrated statistical bounds.

Importing it pins numpy's OpenBLAS to one thread unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS sets a count; the package uses every CPU
itself."""

__version__ = "0.1.0"

from .nnengine import (  # noqa: F401
    Layer,
    MlpNetwork,
    OptimizerState,
    backward,
    forward_batch,
    init_network,
    l1_unstructured_prune,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .watermark import (  # noqa: F401
    HyperParams,
    ModelBundle,
    TriggerSet,
    VerificationRefused,
    embed_watermark,
    extract_messages,
    load_trigger_set,
    sample_noise,
    save_trigger_set,
)
from .stats import (  # noqa: F401
    VerificationReport,
    covariance_delta,
    detection_rate,
    fpr_binomial,
    mean_distance,
    select_threshold,
    var_distance,
)
from .bounds import (  # noqa: F401
    BoundReport,
    chernoff_gamma,
    collision_estimate,
    detection_rate_bounds,
    hoeffding_epsilon,
    lemma_bounds,
    poisson_binomial_cdf,
)
from .harness import ExperimentConfig, build_trigger_set, run_pipeline, verify_suspect  # noqa: F401
from .synth import gen_synthetic_images  # noqa: F401
