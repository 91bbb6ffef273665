"""Partitioned exponential Runge-Kutta integrators.

Matrix-free stiff time integration built on an adaptive Krylov engine for
phi-function products, with methods of orders 2 to 4 in original,
transformed, and partitioned forms, a reaction-diffusion benchmark with four
splittings, and a convergence-study harness exposed through the ``pexprk``
command-line tool.
"""
