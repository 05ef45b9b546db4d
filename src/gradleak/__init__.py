"""gradleak: gradient inversion attacks on simulated federated learning rounds.

The package splits into: a tensor/expression-graph core able to take
gradients of gradients (`tensor`, and `graph`, whose expression graph is the
one implementation of every operation), declarative attackable models
(`models`), the honest federated side (`flsim`), the reconstruction attacks
(`attack`), quality metrics (`metrics`), image plumbing (`netpbm`) and the
CLI (`cli`).
"""

from .attack import (
    AttackConfig,
    AttackTrace,
    TraceRecord,
    VirtualSample,
    dlg_attack,
    fc_analytic_reconstruct,
    gradient_distance,
    improved_dlg,
    infer_label_from_bundle,
    label_from_gradient_sign,
    mean_anchor_penalty,
)
from .errors import (
    AmbiguityError,
    BiasGradientVanishesError,
    ContractError,
    DivergenceError,
    GeometryError,
    GradleakError,
    IncompatibilityError,
    ParseError,
    ShapeError,
)
from .flsim import (
    AGGREGATE_CLIENT,
    GradientBundle,
    aggregate,
    deserialize_bundle,
    read_bundle,
    serialize_bundle,
    victim_gradient,
    write_bundle,
)
from .graph import ExprGraph, Stack, conv2d, grad, meta_grad
from .metrics import (
    ConvergenceReport,
    ImagePair,
    convergence_report,
    mse_255,
    mse_unit,
    report_kv,
)
from .models import (
    Activation,
    Conv,
    Dense,
    Flatten,
    LossGraph,
    ModelParams,
    ModelSpec,
    Pool,
    build_logits,
    build_model,
    default_attack_spec,
    forward_loss,
    loss_bindings,
    one_hot,
    parse_model_text,
)
from .netpbm import (
    ImageBuffer,
    decode_image,
    encode_image,
    read_image,
    synth_image,
    write_image,
)
from .tensor import SeedRng, Tensor

__version__ = "0.1.0"
