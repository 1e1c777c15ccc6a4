"""Finite-element laboratory for biharmonic Steklov problems on oscillating
subgraph domains: spectral stability, strange-curvature shift and
degeneration to clamped conditions."""

__version__ = "0.1.0"
