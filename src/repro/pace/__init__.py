"""PACE performance-prediction substrate (Fig. 1).

Application models + resource models are combined by an evaluation engine
into execution-time predictions ``t_x(ρ, σ)``, with a demand-driven cache —
the capability both the local schedulers and the grid agents consume.
"""
