"""Covert sensor-attack synthesis for networked discrete-event systems."""

__version__ = "0.1.0"
