"""reprokit: a desk-scale reproducible-builds toolkit.

Build a package twice under two deliberately divergent environments,
compare the results bit for bit, explain any difference as a recursive
tree, classify its root cause, strip the usual nondeterminism from
containers, and exchange signed attestations whose majority decides what
to trust.

The API lives in the submodules (``reprokit.runner``, ``reprokit.compare``,
``reprokit.normalize`` and so on); this package root exports only
``__version__``.
"""

__version__ = "0.1.0"
