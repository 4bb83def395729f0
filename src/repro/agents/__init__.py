"""Agent-based grid load balancing (§3): hierarchy, advertisement, discovery."""
