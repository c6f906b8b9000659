"""Exact-rank toolkit for reduced triangle-free and bipartite graphs.

Import each name from its module (``from rankforge.graphs import Graph``);
importing the package itself loads no submodule.
"""

__version__ = "0.1.0"
