"""Runtime infrastructure: argument handling, reference interpreter,
machine models, and the analytic performance model.

The paper's "thin runtime infrastructure" (Fig. 1) corresponds to the
pieces here that support executing compiled SDFGs; additionally this
package hosts the *reference interpreter*, a direct implementation of
the operational semantics of Appendix A used to cross-validate the code
generators, the machine/performance models that stand in for the GPU and
FPGA hardware of the paper's evaluation (see DESIGN.md §1), and the
guarded-execution runtime: the dynamic memlet sanitizer (R801–R804), the
resource watchdog (R805 deadlines, memory budgets, retries), and the
crash-isolation harness for native backends (E201).
"""

from repro.runtime.arguments import ArgumentError, infer_symbols, validate_arguments
from repro.runtime.interpreter import SDFGInterpreter
from repro.runtime.isolation import BackendCrashError
from repro.runtime.sanitizer import (
    GuardContext,
    GuardedView,
    Sanitizer,
    SanitizerError,
)
from repro.runtime.streams import StreamArray, StreamError, StreamQueue
from repro.runtime.watchdog import (
    RetryPolicy,
    Watchdog,
    WatchdogViolation,
)

__all__ = [
    "ArgumentError",
    "BackendCrashError",
    "GuardContext",
    "GuardedView",
    "RetryPolicy",
    "SDFGInterpreter",
    "Sanitizer",
    "SanitizerError",
    "StreamArray",
    "StreamError",
    "StreamQueue",
    "Watchdog",
    "WatchdogViolation",
    "infer_symbols",
    "validate_arguments",
]
