"""opaqueir: a Mini IR compiler toolkit for observation-preserving optimization.

Programs annotated with opaque observation regions are run through a real
optimization pipeline; a differential validator then shows that every
observation survives with its values, I/O behavior and happens-before
ordering intact, while the same pipeline visibly destroys unprotected
instrumentation and countermeasures.
"""

__version__ = "0.1.0"

from .ir import (  # noqa: F401
    IRError,
    MacroError,
    OpacityBreach,
    ParseError,
    Program,
    Type,
    UNIT_VALUE,
    expand_macros,
    parse_program,
    print_program,
    validate_ssa,
)
from .validate import (  # noqa: F401
    ValidationReport,
    Verdict,
    audit_chain_preservation,
    audit_erasure,
    audit_interleaving,
    audit_value_utilization,
    check_observation_preserving,
    check_ordering,
    check_secret_branches,
    compare_traces,
    observation_trace,
)
