"""twistlab: exact deciders and numerical probes for twisted group algebras
over concrete group families.

Subpackages by theme: exact circle-group arithmetic (phase), elements,
balls and the family table (groups), the shared cocycle kinds and the kind
table (cocycles), one module per group family with its own cocycle kinds
(families), regularity deciders (regularity), the verdict/classification
rules (verdicts), truncated-operator numerics (spectral), and growth/decay
probes (growth).
"""

from ._kernels import IMPL as kernel_impl

__version__ = "0.1.0"
__all__ = ["kernel_impl", "__version__"]
