"""Trigger-set watermarking of feature-extractor models: embed binary
messages into noisy trigger representations, extract them from suspect
models, and decide ownership with calibrated statistical bounds."""

import os as _os

__version__ = "0.1.0"

# RANDMARK_THREADS caps BLAS threads. BLAS reads its thread count when numpy
# loads, so the cap is applied here, before this package first imports numpy;
# it has no effect if the host program imported numpy earlier.
if _os.environ.get("RANDMARK_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["RANDMARK_THREADS"])

from .nnengine import (  # noqa: F401
    Layer,
    MlpNetwork,
    OptimizerState,
    backward,
    forward_batch,
    gradient_check,
    init_network,
    l1_unstructured_prune,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .watermark import (  # noqa: F401
    BitMessage,
    ExtractionBatch,
    HyperParams,
    ModelBundle,
    TriggerSample,
    TriggerSet,
    VerificationRefused,
    compute_loss,
    decode_message,
    embed_watermark,
    encode_trigger,
    extract_messages,
    load_trigger_set,
    sample_noise,
    save_trigger_set,
)
from .stats import (  # noqa: F401
    VerificationReport,
    covariance_delta,
    cross_model_variance,
    decide,
    detection_rate,
    fpr_binomial,
    hamming_distance,
    mean_distance,
    select_threshold,
    var_distance,
)
from .bounds import (  # noqa: F401
    BoundReport,
    chernoff_gamma,
    detection_rate_bounds,
    hoeffding_epsilon,
    lemma_bounds,
    one_sided_binomial_bound,
    per_image_detection_prob,
    poisson_binomial_cdf,
)
from .harness import ExperimentConfig, build_trigger_set, run_pipeline, verify_suspect  # noqa: F401
from .synth import gen_synthetic_images  # noqa: F401
