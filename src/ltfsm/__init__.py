"""Simulation of symmetric alpha-stable processes via shot-noise series.

The flagship model is the local-time fractional stable motion: a stable
process directed by the occupation density of an independent fractional
Brownian motion.  The package provides

* deterministic, splittable random streams (:mod:`ltfsm.streams`),
* exact fractional Brownian motion sampling (:mod:`ltfsm.fbm`),
* kernel-smoothed occupation measures (:mod:`ltfsm.localtime`),
* the error budgets of the truncated shot-noise series
  (:mod:`ltfsm.shotnoise`),
* the epsilon-driven tuning and path simulators (:mod:`ltfsm.process`),
* Monte Carlo validation statistics (:mod:`ltfsm.validation`) and batched
  experiment drivers (:mod:`ltfsm.experiments`),
* a command line front end (``ltfsm``, :mod:`ltfsm.cli`).

Every public name of the eight library modules is re-exported here; each is
declared once, in its own module's ``__all__``.  ``ltfsm.io`` and
``ltfsm.cli`` serve the command line and are imported from their modules.
"""

__version__ = "0.1.0"

from . import experiments, fbm, localtime, oracle, process, shotnoise, streams, validation
from .streams import *
from .oracle import *
from .fbm import *
from .localtime import *
from .shotnoise import *
from .process import *
from .validation import *
from .experiments import *

__all__ = ["__version__"] + [
    name
    for module in (streams, oracle, fbm, localtime, shotnoise, process, validation, experiments)
    for name in module.__all__
]
