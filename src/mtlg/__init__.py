"""Memristive current-mode threshold logic gate toolkit, in seven modules: gate,
device, transient, synth, netlist, files and cli. Each name is imported from its
module (`from mtlg.gate import GateConfig`); the package re-exports nothing."""
