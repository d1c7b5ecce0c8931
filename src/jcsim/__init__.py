"""Lossy Jaynes-Cummings dynamics with dressed-jump and photon-loss generators."""
