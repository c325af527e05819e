"""Discrete-event simulation kernel.

The serving experiments and the distributed-tuning scalability study run
in *simulated* seconds: a virtual clock advances from event to event, so
a 1,500-second serving trace or an 8-worker tuning study replays in
milliseconds of real time while preserving the exact queueing dynamics.
"""

from repro.sim.kernel import Signal, Simulator

__all__ = ["Simulator", "Signal"]
