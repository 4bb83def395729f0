"""Communication substrate: typed messages, XML templates, in-memory transport."""
