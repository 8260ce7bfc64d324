"""Recurrent graph tensor networks for multi-way sequence modelling.

The graph-filter sequence models (grgtn, srgtn) and a vanilla RNN baseline
on a reverse-mode tape, tensor-train decomposition and heads, and training
plus CLI tooling for desk-scale comparisons.  The package namespace
re-exports nothing: import each name from its module, as ``rgtn.cli`` does.
"""

__version__ = "0.1.0"
