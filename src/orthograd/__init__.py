"""Machine unlearning through per-sample gradient orthogonalization.

The toolkit removes the influence of an unlearn set from a trained
classifier by projecting the unlearn gradient onto the subspace orthogonal
to the per-sample gradients of a retain batch, then blending it with the
mean retain gradient.  Modules:

* ``linalg``      the projection kernel
* ``net``         feed-forward classifier with factored per-sample gradients
* ``lora``        low-rank adapters for parameter-efficient unlearning
* ``data``        blob and CSV datasets, unlearn/retain splits, and the text layer
* ``unlearn``     the update rule, stopping rules, the epoch loop
* ``evaluation``  impact metric and the structured results format
* ``config``      the checked experiment builder
* ``cli``         the ``orthograd`` command
"""

from .data import (
    Dataset, Splits, gen_gaussian_blobs, load_csv_dataset, make_unlearn_split,
    partition_train_test,
)
from .evaluation import AccuracyReport, RunRecord, evaluate_splits, uis
from .linalg import project_out_span
from .lora import AdaptedModel, LoraAdapterSet, attach_lora
from .net import (
    NetworkSpec, ParamVector, PerSampleGrads, evaluate_accuracy, init_params,
    load_checkpoint, pretrain, save_checkpoint,
)
from .unlearn import (
    MethodKind, StoppingRule, UnlearnConfig, UnlearnResult, orthograd_step,
    run_unlearning, stopping_check,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport", "AdaptedModel", "Dataset", "LoraAdapterSet",
    "MethodKind", "NetworkSpec", "ParamVector", "PerSampleGrads", "RunRecord",
    "Splits", "StoppingRule", "UnlearnConfig", "UnlearnResult",
    "attach_lora", "evaluate_accuracy", "evaluate_splits", "gen_gaussian_blobs",
    "init_params", "load_checkpoint", "load_csv_dataset",
    "make_unlearn_split", "orthograd_step",
    "partition_train_test", "pretrain", "project_out_span",
    "run_unlearning", "save_checkpoint", "stopping_check", "uis",
]
