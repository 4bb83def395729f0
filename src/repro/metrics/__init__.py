"""Grid load-balancing performance metrics (§3.3): ε, υ, β."""
