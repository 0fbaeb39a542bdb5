"""Memristive current-mode threshold logic gate toolkit."""

from .device import (
    DeviceModel,
    MemristorState,
    ProgramResult,
    ProgramTimeoutError,
    ReadDisturbError,
    apply_pulse,
    conductance_levels,
    program_to_target,
    quantize,
    read_current,
)
from .gate import (
    BoundaryMap,
    BranchCurrents,
    GateClass,
    GateConfig,
    GateKind,
    GateOutput,
    TieRule,
    TruthTable,
    VoltageLevels,
    bits_of_index,
    boundary_grid,
    branch_currents,
    classify,
    decision_hyperplane,
    evaluate,
    truth_table,
)
from .netlist import (
    Netlist,
    NetlistError,
    Source,
    Wire,
    evaluate_network,
    network_truth_table,
    validate,
)
from .synth import (
    DeviceRangeError,
    SynthesisResult,
    SynthesisSpec,
    VerifyReport,
    check_separability,
    named_truth_table,
    synthesize,
    verify_config,
)
from .transient import (
    ClockSpec,
    TransientParams,
    WaveformTrace,
    isolation_inverter,
    settle_time,
    simulate,
    write_csv,
)

__version__ = "0.1.0"
