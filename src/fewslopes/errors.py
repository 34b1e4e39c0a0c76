"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
pipelines can react precisely; all of them derive from FewslopesError.
"""

from __future__ import annotations


class FewslopesError(Exception):
    """Base class for all package-specific errors."""


# --- graph / embedding errors -------------------------------------------------

class NotPlanar(FewslopesError):
    """Input graph admits no planar embedding.

    Carries a Kuratowski witness (an edge list of a K5/K33 subdivision) when
    one is available.
    """

    def __init__(self, message: str, witness_edges=None):
        super().__init__(message)
        self.witness_edges = witness_edges


class Disconnected(FewslopesError):
    """Operation requires a connected graph."""


class NotBiconnected(FewslopesError):
    """Operation requires a biconnected graph."""


class NotTriangulated(FewslopesError):
    """Operation requires every face of the embedding to be a triangle."""


class VerticesNotOnOuterFace(FewslopesError):
    """A designated vertex is not on the outer face of the embedding."""


class TooFewVertices(FewslopesError, ValueError):
    """The graph has fewer vertices than the pipeline's construction needs.
    It is a ValueError too, as the size is a bad argument value."""


class StOrderInfeasible(FewslopesError):
    """No vertex order with the requested endpoints satisfies the
    earlier/later-neighbor condition together with the outer-face
    constraint on the second vertex."""


# --- circle packing errors ----------------------------------------------------

class NoConvergence(FewslopesError):
    """Radius iteration did not reach the target residual: it hit the step
    cap, or no step length lowered the residual any more."""

    def __init__(self, max_iters: int, residual: float):
        super().__init__(
            f"packing solver stopped after {max_iters} steps "
            f"(max angle residual {residual:.3e})"
        )
        self.max_iters = max_iters
        self.residual = residual


class PrecisionExhausted(FewslopesError):
    """Floating point cannot represent the layout: packing radii underflow
    to 0, packing centers coincide or come out non-finite, a scaled center
    leaves the float range, or a snapped face is inverted or degenerate."""


# --- two-bend errors ----------------------------------------------------------

class SlopesTooFew(FewslopesError):
    """Requested slope count is below the ceil(d/2) minimum."""


class DegreeTooHigh(FewslopesError):
    """A degree is too high for the construction: a vertex has more
    neighbors than the 2s directed slopes (the designated final vertex needs
    degree < 2s), or draw_low_degree got maximum degree above 2."""


class GluingFailed(FewslopesError):
    """A two-bend block cannot be placed: the slots read at a cut vertex do
    not form one arc."""


# --- family generator errors --------------------------------------------------

class DegreeTooSmall(FewslopesError):
    """Family parameter d is below the generator's minimum."""


# --- verifier errors ----------------------------------------------------------

class SlopeOffGrid(FewslopesError):
    """A segment's exact direction is none of the 2s directed integer
    vectors of a slope set."""
