"""regula: exact desk-scale computational group theory with a verification CLI."""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    DegreeMismatch,
    ExprParseError,
    GroupDataError,
    NotInGroup,
    NotNormal,
    RegulaError,
    UnknownGroupName,
)
from .perm_core import PermGroup, Permutation

__all__ = [
    "CapExceeded",
    "DegreeMismatch",
    "ExprParseError",
    "GroupDataError",
    "NotInGroup",
    "NotNormal",
    "PermGroup",
    "Permutation",
    "RegulaError",
    "UnknownGroupName",
    "__version__",
]
