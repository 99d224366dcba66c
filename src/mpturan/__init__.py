"""Minimum-degree thresholds for cliques in balanced multipartite graphs.

The package is organized around one quantity: f(n, r, t), the largest
minimum degree among r-partite graphs with parts of size n that contain
no clique on t + 1 vertices.

* :mod:`mpturan.bounds` evaluates every known closed form and bound in
  exact integer and rational arithmetic.
* :mod:`mpturan.constructions` builds the extremal graphs behind the
  lower bounds explicitly, re-measuring every claimed degree.
* :mod:`mpturan.verifier` checks cliques, crossing independent sets,
  colorings, and degree claims by exhaustive search and emits
  machine-checkable certificates.
* :mod:`mpturan.oracle` recomputes f and its complementary covering form
  by brute force on tiny instances, as independent ground truth.
* :mod:`mpturan.graphio` reads and writes graphs as canonical JSON or
  DIMACS.
* :mod:`mpturan.cli` exposes it all as the ``mpturan`` command.

Every name in a library module's ``__all__`` is also importable from the
package itself.
"""

from . import bounds, constructions, errors, graphio, graphs, oracle, verifier
from .bounds import *
from .constructions import *
from .errors import *
from .graphio import *
from .graphs import *
from .oracle import *
from .verifier import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *constructions.__all__,
    *errors.__all__,
    *graphio.__all__,
    *graphs.__all__,
    *oracle.__all__,
    *verifier.__all__,
    "__version__",
]
