"""qdilab: a gate-level laboratory for indicating asynchronous dual-rail circuits.

Build dual-rail netlists (strongly/weakly indicating blocks, parametric array
multipliers), simulate them event-driven under RTZ or RTO 4-phase
handshaking, and verify function, indication class, orphan freedom, and
relative cycle-time/power figures.
"""

from .encoding import Protocol, encode
from .netlist import (Cell, DualRailPort, Gate, GateKind, Netlist, NetlistBuilder,
                      NetlistError, ValidationError, dual_of, from_json, stats,
                      structurally_equal, to_dot, to_json, validate)
from .sim import (DelayModel, HazardRecord, InitializationError,
                  NonQuiescenceError, RandomUniformDelay, SimState,
                  SimulationError, Stimulus, StimulusError, TableDelay,
                  UnitDelay, initialize)
from .handshake import (HandshakeHarness, TransactionError, TransactionMetrics,
                        TransactionResult, build_completion_detector)
from .components import (COMPONENT_ORACLES, COMPONENTS, FA_VARIANTS,
                         dims_full_adder, rca_oracle, ripple_carry_adder,
                         strong_and2, weak_full_adder)
from .multiplier import (MultiplierSpec, array_multiplier, input_vector,
                         product_bits, product_oracle, reference_product)
from .analysis import (BenchDesign, BenchRow, Indication, IndicationVerdict,
                       OrphanReport, VerifyReport, benchmark, bench_to_csv,
                       classify_indication, exhaustive_verify, measure_latencies,
                       orphan_scan)

__version__ = "0.1.0"
