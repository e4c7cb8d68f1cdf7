"""Desk-scale SAM training with influence-based training-data attribution.

Subpackages:
  numcore    norms, dual exponents, seeded batch schedules
  model      small differentiable classifiers (gradients, exact HVPs)
  samtrain   SAM optimizer, trajectory recording and persistence
  influence  the three influence estimators, GMRES and Neumann iHVP
  oracle     leave-one-out and removal-set retraining ground truth, calibration
  datasets   blobs / CSV / IDX ingestion, label flipping
  experiments, report, cli   batch experiment drivers, one report per run
"""

from .model import Dataset, ModelSpec
from .samtrain import SAMConfig, Trajectory
from .influence import NeumannConfig

__all__ = ["Dataset", "ModelSpec", "SAMConfig", "Trajectory", "NeumannConfig"]
__version__ = "0.1.0"
