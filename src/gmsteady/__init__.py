"""Steady states of an activator-inhibitor elliptic system on R^N.

Numerically constructs, bounds, and certifies positive radial steady
states of the coupled system

    -Delta u + lam u = u^p / v^q + rho(x),
    -Delta v + mu  v = u^m / v^s,          u, v -> 0 at infinity,

via explicit barrier sandwiches, closed-form feasibility constants,
monotone sub/super-solution iteration, and nonexistence predicates.

The API lives in the submodules (``gmsteady.barriers``,
``gmsteady.solvers``, ``gmsteady.certificates``, ...), each with its own
``__all__``.  Importing the package loads none of them, so each CLI
subcommand starts with only the modules it runs.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
