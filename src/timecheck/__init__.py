"""timecheck: timing-based software root of trust, at desk scale.

A verifier challenges a device to evaluate a k-independent randomized
polynomial over its checkpointed memory in randomized multi-pass order.
Honest devices finish in calibrated time; anything hiding state must swap
through slower memory tiers and pays a latency penalty the verifier's
statistics catch.
"""

__version__ = "0.1.0"
