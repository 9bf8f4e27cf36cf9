"""Analysis and simulation of receiver-based opportunistic forwarding
over a cognitive-radio control channel.

Closed forms live in :mod:`oppsim.analysis`, independent reference
implementations in :mod:`oppsim.oracle`, topology builders in
:mod:`oppsim.topology`, and the packet-level simulator in
:mod:`oppsim.engine`.  The package root re-exports none of them: import
each name from the module that defines it.
"""

# the benchmark's tracer wraps and restores this alias
# (perfbench/test_perfbench.py::test_wrapped_attributes_are_restored)
from .model import validate

__version__ = "0.1.0"
