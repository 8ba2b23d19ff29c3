"""statelab: numerical laboratory for classical mechanics in quantum state space.

Import each name from its module, e.g. ``from statelab.numerics import Grid``.
"""

__version__ = "0.1.0"
