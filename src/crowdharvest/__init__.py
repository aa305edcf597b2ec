"""crowdharvest: RF energy-harvesting relay systems, simulated end to end.

Modules:

* :mod:`crowdharvest.geometry` -- transmitter deployments and
  nearest-distance laws;
* :mod:`crowdharvest.propagation` -- urban pathloss and shadowing;
* :mod:`crowdharvest.harvest` -- crowd-harvested power aggregation,
  scaling laws, traffic-load convolutions;
* :mod:`crowdharvest.swipt` -- time-switching / power-splitting relay
  throughput, split optimisation and the ambient/SWIPT mode controller;
* :mod:`crowdharvest.scheduling` -- energy-causal transmission
  scheduling, water-filling, finite-battery MDP policies;
* :mod:`crowdharvest.collaboration` -- two-node joint transmission under
  inter-delivery deadlines;
* :mod:`crowdharvest.scenario` -- configuration, case studies, reports.
"""

__version__ = "0.1.0"

from .geometry import Deployment, Region  # noqa: F401
from .harvest import HarvestReport, RatProfile  # noqa: F401
from .scenario import ScenarioConfig, default_config, load_config  # noqa: F401
from .swipt import LinkState, RelayMode  # noqa: F401
