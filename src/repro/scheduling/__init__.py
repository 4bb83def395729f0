"""Performance-driven task scheduling for local grid load balancing (§2)."""
