"""Discrete-event simulation substrate (virtual-time test mode, §4.1)."""
