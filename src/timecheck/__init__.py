"""timecheck: timing-based software root of trust, at desk scale.

A verifier challenges a device to evaluate a k-independent randomized
polynomial over its checkpointed memory in randomized multi-pass order.
Honest devices finish in calibrated time; anything hiding state must swap
through slower memory tiers and pays a latency penalty the verifier's
statistics catch.
"""

from .checkpoint import (
    Checkpoint,
    MemoryImage,
    checkpoint_record,
    checkpoint_replay,
    entropy_report,
    load_checkpoint,
    save_checkpoint,
)
from .coeffs import RandomSeeds, coefficient_at
from .device import (
    AdversaryConfig,
    DeviceState,
    Measurement,
    NoiseModel,
    Scenario,
    TierModel,
    builtin_scenario,
    full_memory_scenario,
    run_trials,
)
from .engine import (
    ChallengeResult,
    ChallengeSpec,
    multipass,
    multipass_naive,
    random_spec,
)
from .field import M61, FieldParams, horner_step, is_prime
from .permutation import IdentityPermutation, PermutationGenerator
from .stats import (
    BaselineProfile,
    Verdict,
    calibrate,
    confusion_report,
    detect_chebyshev,
    detect_modified_z,
    detect_percentile,
    detect_zscore,
    ks_test,
    serial_correlation,
    t_test,
)

__version__ = "0.1.0"
