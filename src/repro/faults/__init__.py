"""Fault injection and resiliency analyses (paper Section 7)."""

from .disconnection import (
    DisconnectionResult,
    disconnection_fraction,
    disconnection_trial,
)
from .removal import FailureOrder, UnionFind, failure_threshold, shuffled_links
from .switches import (
    SwitchSurvival,
    links_of_switches,
    switch_failure_order,
    updown_switch_tolerance,
    updown_switch_trial,
)
from .updown_survival import (
    UpdownSurvival,
    order_threshold,
    pruned_stages,
    updown_fault_tolerance,
    updown_trial,
)

__all__ = [
    "DisconnectionResult",
    "disconnection_fraction",
    "disconnection_trial",
    "FailureOrder",
    "UnionFind",
    "failure_threshold",
    "shuffled_links",
    "UpdownSurvival",
    "SwitchSurvival",
    "links_of_switches",
    "switch_failure_order",
    "updown_switch_tolerance",
    "updown_switch_trial",
    "order_threshold",
    "pruned_stages",
    "updown_fault_tolerance",
    "updown_trial",
]
