"""Pinch move calculus on torus knots.

Exact integer machinery for pinch sequences and pinch numbers, the torus
knot families K_n = T(4n, (2n+1)^2) and J_n = T(4n, (2n-1)^2), and the
rational tangle computation certifying the slice two-bridge knots their
band surgeries produce.
"""
