"""Workbench for quantum-limited transmission estimation with bright
two-mode squeezed light: Gaussian-state machinery, a distributed-loss
squeezer source model, Cramér-Rao bound evaluation, a detection-chain
simulator, and source-parameter inference.

Importing the package loads none of its modules; callers import from the
submodules (``from qcrbench.bounds import qcrb_distributed``).
"""

__version__ = "0.1.0"
