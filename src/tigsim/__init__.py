"""tigsim: transaction-level simulator of a programmable bus traffic
injector attached to AHB-like and AXI-like interconnect models, with a
pattern DSL and an interference-measurement harness."""

from .descriptors import (
    Descriptor,
    DescriptorWords,
    InvalidDescriptor,
    InvalidKindCode,
    Kind,
    ReservedBitsSet,
    decode,
    encode,
)
from .harness import (
    ConfigError,
    CycleLimitExceeded,
    Simulation,
    Topology,
    build,
    load_topology,
    run,
    run_pair,
)
from .injector import CapacityExceeded, Injector, OffsetOutOfRange
from .interconnect import Bus, Transaction, beats_for
from .metrics import MetricsRecord, emit_csv
from .pattern import PatternRangeError, PatternSyntaxError, parse

__version__ = "0.1.0"
