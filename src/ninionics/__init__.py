"""Thermodynamics of free quantum gases under imaginary rotation.

Exact rational statistical angles, the phase-sum identities behind
statistical transmutation, closed-form and quadrature gas thermodynamics,
ninionic occupation numbers, fractal Farey scans, and a planar-rotor
realization of the angular-momentum generating function.

Each subsystem is a submodule, imported by name (``from ninionics import
fractal``), so a launch loads only the submodules it uses.
"""

__version__ = "0.1.0"
