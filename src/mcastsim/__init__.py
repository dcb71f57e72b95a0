"""Discrete-event simulator for large-scale multicast in mobile ad hoc networks:
zone-plus-contact hierarchy, geographic rendezvous-region address allocation,
sender-discovery-server anycast, and mesh multicast with on-demand activation."""

from .kernel import Kernel, Packet, RadioModel, ConfigError, FatalSimError
from .rendezvous import GroupAddress, WELL_KNOWN_GROUP
from .scenario import Scenario, from_dict, load_scenario
from .sim import Simulation, run_scenario

__all__ = [
    "Kernel", "Packet", "RadioModel", "ConfigError", "FatalSimError",
    "GroupAddress", "WELL_KNOWN_GROUP",
    "Scenario", "from_dict", "load_scenario", "Simulation", "run_scenario",
]

__version__ = "0.1.0"
