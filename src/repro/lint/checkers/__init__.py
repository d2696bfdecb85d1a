"""Built-in checker plugins.

Importing this package registers every shipped checker; the registry
in :mod:`repro.lint.base` does it lazily so the data model can be
imported without side effects.
"""

from __future__ import annotations

from .rpr001_unseeded_rng import UnseededRngChecker
from .rpr003_set_iteration import SetIterationChecker
from .rpr004_wallclock import WallClockChecker
from .rpr101_result_coverage import ResultCoverageChecker
from .rpr102_dtype_width import DtypeWidthChecker
from .rpr103_cachekey_taint import CacheKeyTaintChecker
from .rpr105_relaxed_rng import RelaxedRngChecker

__all__ = [
    "UnseededRngChecker",
    "SetIterationChecker",
    "WallClockChecker",
    "ResultCoverageChecker",
    "DtypeWidthChecker",
    "CacheKeyTaintChecker",
    "RelaxedRngChecker",
]
