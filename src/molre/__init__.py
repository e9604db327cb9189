"""Conditionally routed low-rank adapters over frozen backbone features,
with the full training, preprocessing, and evaluation protocol around them.

Each name is imported from the module that defines it, e.g.
`from molre.model import build_model`."""

__version__ = "0.1.0"
