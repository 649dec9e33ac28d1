"""Heralded single-photon path entanglement: simulation and certification."""
